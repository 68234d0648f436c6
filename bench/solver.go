package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/circuits"
	"repro/internal/flowrefine"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/verify"
)

// solverWorkload is a certified solve run in fresh child processes, one
// per repetition, so every repetition pays process start-up, reads the
// netlist cold and reports its own peak RSS.
type solverWorkload struct {
	name string
	// netlist writes the seeded input instance to path.
	netlist func(seed int64, short bool, path string) error
	// solve is the program's own entry point, run untraced.
	solve func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec) (*htp.Result, error)
	// traced is the same solve re-composed layer by layer (compose.go).
	traced func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, rec *recorder) (*htp.Result, error)
}

// solverSeed is the solver's own seed: htpart's default. The workload seed
// varies the input netlist, not the algorithm.
const solverSeed = 1

var solverWorkloads = []*solverWorkload{
	{
		name: "flat-c7552",
		netlist: func(seed int64, short bool, path string) error {
			name := "c7552"
			if short {
				name = "c1355"
			}
			spec, err := circuits.ByName(name)
			if err != nil {
				return err
			}
			return circuits.Generate(spec, seed).WriteFile(path)
		},
		// htpart -algo flow -n 4: four metric computations on the exact
		// sequential engine, one construction from each.
		solve: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec) (*htp.Result, error) {
			return htp.FlowCtx(ctx, h, spec, htp.FlowOptions{Iterations: 4, PartitionsPerMetric: 1,
				Seed: solverSeed, Inject: inject.Options{Workers: 1}})
		},
		traced: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, rec *recorder) (*htp.Result, error) {
			return flatRun(ctx, h, spec, flatParams{Iterations: 4, PerMetric: 1, Seed: solverSeed, Workers: 1}, rec)
		},
	},
	{
		name: "mlf-synth65536",
		netlist: func(seed int64, short bool, path string) error {
			gates := 65536
			if short {
				gates = 4096
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := circuits.Stream(circuits.Scaled(gates), seed, f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		},
		// htpart -multilevel -flow-refine -workers 2: every accepted
		// flow-refinement batch re-certified.
		solve: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec) (*htp.Result, error) {
			return htp.MultilevelCtx(ctx, h, spec, htp.MultilevelOptions{Strategy: "flow", CoarsenTarget: 300,
				Seed: solverSeed, Workers: 2, FlowRefine: true,
				FlowRefineOpt: flowrefine.Options{Certify: verify.Certifier()}})
		},
		traced: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, rec *recorder) (*htp.Result, error) {
			return vcycleRun(ctx, h, spec, vcycleParams{Workers: 2, Seed: solverSeed, CoarsenTarget: 300}, rec)
		},
	},
}

func solverWorkloadByName(name string) *solverWorkload {
	for _, w := range solverWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// paperSpec is the hierarchy htpart builds by default: a height-4 binary
// tree, level weights 2^l, 10% capacity slack.
func paperSpec(h *hypergraph.Hypergraph) (hierarchy.Spec, error) {
	return hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
}

// childReport is what one child process measured, printed as its last
// line of output.
type childReport struct {
	SetupS    float64     `json:"setup_s"`
	SolveS    float64     `json:"solve_s"`
	CPUS      float64     `json:"cpu_s"`
	AllocMB   float64     `json:"alloc_mb"`
	PeakRSSMB float64     `json:"peak_rss_mb"`
	Cost      float64     `json:"cost"`
	Origin    time.Time   `json:"origin"`
	Spans     []spanRec   `json:"spans,omitempty"`
	Counts    layerCounts `json:"counts"`
}

const mib = 1 << 20

// childMain is the child side: read the netlist, solve once (traced or
// not), certify, write the result dump, report. With -setup-only it stops
// after reading the netlist and building the spec.
func childMain(args []string) int {
	fs := flag.NewFlagSet("bench -child", flag.ContinueOnError)
	var (
		name      = fs.String("child", "", "solver workload")
		in        = fs.String("in", "", "netlist")
		dump      = fs.String("dump", "", "result dump to write")
		traced    = fs.Bool("traced", false, "re-compose the solve layer by layer and record spans")
		setupOnly = fs.Bool("setup-only", false, "only time reading the netlist and building the spec")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := solverWorkloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown solver workload %q\n", *name)
		return 2
	}
	rep, err := solveOnce(context.Background(), w, *in, *dump, *traced, *setupOnly)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func solveOnce(ctx context.Context, w *solverWorkload, in, dump string, traced, setupOnly bool) (*childReport, error) {
	rec := newRecorder()
	t0 := time.Now()
	sp := 0
	if traced {
		sp = rec.begin("read")
	}
	h, err := readNetlist(in)
	if err != nil {
		return nil, err
	}
	spec, err := paperSpec(h)
	if err != nil {
		return nil, err
	}
	if traced {
		rec.end(sp, 0)
	}
	setup := time.Since(t0)
	if setupOnly {
		return &childReport{SetupS: setup.Seconds()}, nil
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := rusageCPU()
	t1 := time.Now()
	var res *htp.Result
	if traced {
		sp = rec.begin("run")
		res, err = w.traced(ctx, h, spec, rec)
		if err == nil {
			err = certifyRun(res, rec)
		}
		if err != nil {
			return nil, err
		}
		rec.end(sp, res.Cost)
	} else {
		res, err = w.solve(ctx, h, spec)
		if err != nil {
			return nil, err
		}
		if err := verify.Result(res).Err(); err != nil {
			return nil, err
		}
	}
	solve := time.Since(t1)
	cpu := rusageCPU() - cpu0
	runtime.ReadMemStats(&m1)

	d := hierarchy.DumpPartition(res.Partition, res.Cost)
	d.Netlist, d.Algorithm, d.Seed, d.Stop = filepath.Base(in), w.name, solverSeed, string(res.Stop)
	if err := d.WriteFile(dump); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rep := &childReport{SetupS: setup.Seconds(), SolveS: solve.Seconds(), CPUS: cpu,
		AllocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / mib, PeakRSSMB: rss, Cost: res.Cost}
	if traced {
		rep.Origin, rep.Spans, rep.Counts = rec.origin, rec.spans, rec.counts
	}
	return rep, nil
}

func readNetlist(path string) (*hypergraph.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hypergraph.ReadFrom(f)
}

// repOut is one child run as the parent saw it.
type repOut struct {
	rep    *childReport
	wall   time.Duration
	hash   uint64
	dumpKB float64
}

// execChild runs this binary as a solver child and decodes its report.
func execChild(ctx context.Context, cfg *runConfig, args ...string) (*childReport, time.Duration, error) {
	cmd := exec.CommandContext(ctx, cfg.exe, args...)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	detach(cmd)
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child: %w", err)
	}
	wall := time.Since(t0)
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rep childReport
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, 0, fmt.Errorf("child report: %w", err)
	}
	return &rep, wall, nil
}

// runChild runs one repetition in a fresh process and certifies its dump
// against the parent's own parse of the netlist.
func runChild(ctx context.Context, cfg *runConfig, w *solverWorkload, h *hypergraph.Hypergraph, netPath string, traced bool) (*repOut, error) {
	dump := filepath.Join(filepath.Dir(netPath), "result.json")
	args := []string{"-child", w.name, "-in", netPath, "-dump", dump}
	if traced {
		args = append(args, "-traced")
	}
	rep, wall, err := execChild(ctx, cfg, args...)
	if err != nil {
		return nil, err
	}
	out := &repOut{rep: rep, wall: wall}
	hash, size, err := certifyDump(h, dump, out.rep.Cost)
	if err != nil {
		return nil, err
	}
	out.hash, out.dumpKB = hash, float64(size)/1024
	return out, os.Remove(dump)
}

// certifyDump decodes a result dump, rebuilds the partition over h, and
// re-certifies it with the independent verifier. It returns the partition
// hash and the dump's size on disk.
func certifyDump(h *hypergraph.Hypergraph, path string, wantCost float64) (uint64, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	d, hash, err := certifyDumpBytes(h, data)
	if err != nil {
		return 0, 0, err
	}
	if d.Cost != wantCost {
		return 0, 0, fmt.Errorf("dump cost %v, solver reported %v", d.Cost, wantCost)
	}
	return hash, int64(len(data)), nil
}

func certifyDumpBytes(h *hypergraph.Hypergraph, data []byte) (*hierarchy.PartitionDump, uint64, error) {
	d, err := hierarchy.ReadDump(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	p, err := d.Partition(h)
	if err != nil {
		return nil, 0, err
	}
	if err := verify.Certify(p, d.Cost).Err(); err != nil {
		return nil, 0, err
	}
	return d, leafHash(p.LeafOf), nil
}

// leafHash is FNV-1a over the node-to-leaf assignment.
func leafHash(leafOf []int32) uint64 {
	f := fnv.New64a()
	var b [4]byte
	for _, l := range leafOf {
		binary.LittleEndian.PutUint32(b[:], uint32(l))
		f.Write(b[:])
	}
	return f.Sum64()
}

// minReps is the fewest repetitions a solver run makes, however long.
const minReps = 3

// runSolver measures one solver workload: untraced repetitions for the
// run's duration (a repetition is not started when it would end more than
// half a repetition past the window), then, when tracing, one traced
// repetition for the per-layer split. Every repetition must certify and
// agree with the first on cost and partition hash.
func runSolver(ctx context.Context, cfg *runConfig, w *solverWorkload) (*runResult, error) {
	dir, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	netPath := filepath.Join(dir, "input.net")
	if err := w.netlist(cfg.seed, cfg.short, netPath); err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	h, err := readNetlist(netPath)
	if err != nil {
		return nil, err
	}
	// Set-up is what a solver process does before it can solve: read and
	// parse the netlist and build the hierarchy spec, timed in fresh
	// processes setupReps times.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		rep, _, err := execChild(ctx, cfg, "-child", w.name, "-in", netPath, "-setup-only")
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, rep.SetupS)
	}

	r := &runResult{Workload: w.name, Kind: kindSolver, Metrics: map[string]float64{}}
	var reps []*repOut
	var first *repOut
	// check counts a repetition and reports whether it certified and
	// matched the first one; a failure ends the run.
	check := func(o *repOut, err error, what string) bool {
		r.Attempted++
		if err == nil && first != nil && (o.rep.Cost != first.rep.Cost || o.hash != first.hash) {
			err = fmt.Errorf("cost %v hash %016x, first repetition had cost %v hash %016x",
				o.rep.Cost, o.hash, first.rep.Cost, first.hash)
		}
		if err != nil {
			r.Failed++
			r.Problems = append(r.Problems, fmt.Sprintf("%s: %v", what, err))
			return false
		}
		if first == nil {
			first = o
		}
		return true
	}
	start := time.Now()
	var last time.Duration
	for len(reps) < minReps || time.Since(start)+last/2 < cfg.seconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o, err := runChild(ctx, cfg, w, h, netPath, false)
		if !check(o, err, fmt.Sprintf("repetition %d", len(reps)+1)) {
			break
		}
		reps = append(reps, o)
		last = o.wall
		fmt.Fprintf(os.Stderr, "bench: %s repetition %d: solve %.3fs, cpu %.3fs, wall %.3fs\n",
			w.name, len(reps), o.rep.SolveS, o.rep.CPUS, o.wall.Seconds())
	}
	if len(reps) == 0 {
		return r, nil
	}

	var solves, cpus, allocs, rss, disk []float64
	for _, o := range reps {
		solves = append(solves, o.rep.SolveS)
		cpus = append(cpus, o.rep.CPUS)
		allocs = append(allocs, o.rep.AllocMB)
		rss = append(rss, o.rep.PeakRSSMB)
		disk = append(disk, o.dumpKB)
	}
	m := r.Metrics
	m["setup_s"] = median(setups)
	m["latency_p50_s"] = median(solves)
	r.LatencyQuartiles = quartiles(solves)
	m["cpu_s_per_op"] = median(cpus)
	m["alloc_mb_per_op"] = median(allocs)
	m["peak_rss_mb"] = median(rss)
	m["disk_kb_per_op"] = median(disk)

	if !cfg.trace || r.Failed > 0 {
		return r, nil
	}
	o, err := runChild(ctx, cfg, w, h, netPath, true)
	if !check(o, err, "traced repetition") {
		return r, nil
	}
	r.Spans, r.Origin = o.rep.Spans, o.rep.Origin
	secs, alloc := selfTimes(o.rep.Spans)
	c := o.rep.Counts
	var runDur float64
	for _, s := range o.rep.Spans {
		if s.Phase == "run" {
			runDur = float64(s.Dur) / 1e9
		}
	}
	layer := map[string]float64{
		"hypergraph.read_s":             secs["read"],
		"hypergraph.read_alloc_mb":      alloc["read"] / mib,
		"multilevel.coarsen_s":          secs["coarsen"],
		"multilevel.coarsen_alloc_mb":   alloc["coarsen"] / mib,
		"multilevel.levels":             float64(c.Levels),
		"multilevel.coarsest_nodes":     float64(c.CoarsestNodes),
		"multilevel.coarsest_pins":      float64(c.CoarsestPins),
		"htp.construct_s":               secs["construct"],
		"inject.metric_s":               secs["metric"],
		"inject.metric_alloc_mb":        alloc["metric"] / mib,
		"inject.rounds":                 float64(c.Rounds),
		"inject.injections":             float64(c.Injections),
		"inject.tree_nets":              float64(c.TreeNets),
		"htp.build_s":                   secs["build"],
		"htp.build_alloc_mb":            alloc["build"] / mib,
		"htp.builds":                    float64(c.Builds),
		"htp.build_ok_frac":             ratio(float64(c.BuildsOK), float64(c.Builds)),
		"multilevel.uncoarsen_s":        secs["uncoarsen"],
		"multilevel.uncoarsen_alloc_mb": alloc["uncoarsen"] / mib,
		"multilevel.uncoarsen_gain":     c.UncoarsenGain,
		"flowrefine.refine_s":           secs["flow-refine"],
		"flowrefine.refine_alloc_mb":    alloc["flow-refine"] / mib,
		"flowrefine.pairs":              float64(c.Pairs),
		"flowrefine.accepted":           float64(c.Accepted),
		"flowrefine.accept_frac":        ratio(float64(c.Accepted), float64(c.Pairs)),
		"flowrefine.gain":               c.RefineGain,
		"verify.certify_s":              secs["certify"],
		"verify.certify_alloc_mb":       alloc["certify"] / mib,
		"result.cost":                   o.rep.Cost,
		"trace.overhead_frac":           runDur/m["latency_p50_s"] - 1,
	}
	for k, v := range layer {
		m[k] = v
	}
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
