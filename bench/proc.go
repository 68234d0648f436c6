package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv is the environment of every process the benchmark starts: the
// box has two CPUs, so runtimes are pinned to two threads of Go code.
func childEnv() []string {
	return append(os.Environ(), "GOMAXPROCS=2")
}

// detach makes a child die with the runner, so a killed benchmark never
// leaves solvers or daemons behind.
func detach(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// statusKB reads one "Key:   123 kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseFloat(fields[0], 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := statusKB(pid, "VmHWM")
	return kb / 1024, err
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
// It is 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds is the user+system CPU time a process has used so far.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after its
	// closing parenthesis are fixed: utime and stime are fields 14 and 15.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (utime + stime) / clockTick, nil
}

// rusageCPU is this process's user+system CPU time so far.
func rusageCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

func fileBytes(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// findRoot locates the repository root: the directory holding cmd/htpd,
// either dir itself or its parent (when run from bench/).
func findRoot(dir string) (string, error) {
	for _, cand := range []string{dir, filepath.Join(dir, "..")} {
		if info, err := os.Stat(filepath.Join(cand, "cmd", "htpd")); err == nil && info.IsDir() {
			return filepath.Abs(cand)
		}
	}
	return "", fmt.Errorf("no repository root with cmd/htpd at %s or its parent", dir)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
