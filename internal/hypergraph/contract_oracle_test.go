package hypergraph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// contractDedupOracle is ContractDedup as it was written first: the
// identical-net index is a map keyed by the sorted cluster list's bytes.
// It is the reference FuzzContractDedupMatchesOracle holds the hash-table
// index to.
func contractDedupOracle(h *Hypergraph, clusterOf []int, k int) (*Hypergraph, error) {
	if len(clusterOf) != h.NumNodes() {
		return nil, fmt.Errorf("hypergraph: clusterOf has %d entries, want %d", len(clusterOf), h.NumNodes())
	}
	sizes := make([]int64, k)
	for v, c := range clusterOf {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("hypergraph: node %d has cluster %d out of range [0,%d)", v, c, k)
		}
		sizes[c] += h.nodeSizes[v]
	}
	b := NewBuilder()
	for c := 0; c < k; c++ {
		if sizes[c] == 0 {
			return nil, fmt.Errorf("hypergraph: cluster %d is empty", c)
		}
		b.AddNode("", sizes[c])
	}
	mark := make([]bool, k)
	index := make(map[string]NetID) // sorted cluster set -> coarse net
	var key []byte
	var touched []NodeID
	for e := 0; e < h.NumNets(); e++ {
		touched = touched[:0]
		for _, v := range h.Pins(NetID(e)) {
			c := clusterOf[v]
			if !mark[c] {
				mark[c] = true
				touched = append(touched, NodeID(c))
			}
		}
		for _, c := range touched {
			mark[c] = false
		}
		if len(touched) < 2 {
			continue
		}
		slices.Sort(touched)
		key = key[:0]
		for _, c := range touched {
			key = append(key, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		if id, ok := index[string(key)]; ok {
			b.netCaps[id] += h.netCaps[e]
			continue
		}
		id := b.AddNet(h.NetName(NetID(e)), h.netCaps[e], touched...)
		index[string(key)] = id
	}
	return b.Build()
}

// FuzzContractDedupMatchesOracle draws a hypergraph and a clustering from
// the fuzzer's numbers and checks ContractDedup against the map-keyed
// oracle: node sizes, nets in order, pin order, capacities bit for bit,
// and names, which a named input keeps and an unnamed one never grows.
// Few clusters over many small nets make identical cluster sets, and so
// index hits, common.
func FuzzContractDedupMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(30), uint8(3), false)
	f.Add(int64(2), uint8(40), uint8(200), uint8(6), true)
	f.Add(int64(3), uint8(5), uint8(60), uint8(2), true)
	f.Add(int64(4), uint8(200), uint8(255), uint8(90), false)
	f.Fuzz(func(t *testing.T, seed int64, nodes, nets, clusters uint8, named bool) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nodes)%120
		k := 1 + int(clusters)%n
		b := NewBuilder()
		for v := 0; v < n; v++ {
			name := ""
			if named && rng.Intn(3) > 0 {
				name = fmt.Sprintf("g%d", v)
			}
			b.AddNode(name, 1+int64(rng.Intn(3)))
		}
		caps := []float64{0, 1, 0.1, 0.7, 1.3, 1e-3}
		for e := 0; e < int(nets); e++ {
			perm := rng.Perm(n)[:2+rng.Intn(min(6, n-1))]
			pins := make([]NodeID, len(perm))
			for i, v := range perm {
				pins[i] = NodeID(v)
			}
			name := ""
			if named && rng.Intn(2) == 0 {
				name = fmt.Sprintf("n%d", e)
			}
			b.AddNet(name, caps[rng.Intn(len(caps))]*float64(1+rng.Intn(5)), pins...)
		}
		h := b.MustBuild()
		clusterOf := make([]int, n)
		for v := range clusterOf {
			if v < k {
				clusterOf[v] = v
			} else {
				clusterOf[v] = rng.Intn(k)
			}
		}
		rng.Shuffle(n, func(i, j int) { clusterOf[i], clusterOf[j] = clusterOf[j], clusterOf[i] })

		got, err := h.ContractDedup(clusterOf, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := contractDedupOracle(h, clusterOf, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumNodes() != want.NumNodes() || got.NumNets() != want.NumNets() || got.NumPins() != want.NumPins() {
			t.Fatalf("shape (%d,%d,%d), oracle (%d,%d,%d)", got.NumNodes(), got.NumNets(), got.NumPins(),
				want.NumNodes(), want.NumNets(), want.NumPins())
		}
		for c := 0; c < k; c++ {
			if got.NodeSize(NodeID(c)) != want.NodeSize(NodeID(c)) || got.NodeName(NodeID(c)) != "" {
				t.Fatalf("cluster %d: size %d name %q, oracle size %d and no name", c,
					got.NodeSize(NodeID(c)), got.NodeName(NodeID(c)), want.NodeSize(NodeID(c)))
			}
		}
		for e := 0; e < got.NumNets(); e++ {
			id := NetID(e)
			if !slices.Equal(got.Pins(id), want.Pins(id)) {
				t.Fatalf("net %d pins %v, oracle %v", e, got.Pins(id), want.Pins(id))
			}
			if math.Float64bits(got.NetCapacity(id)) != math.Float64bits(want.NetCapacity(id)) {
				t.Fatalf("net %d capacity %v, oracle %v", e, got.NetCapacity(id), want.NetCapacity(id))
			}
			if got.NetName(id) != want.NetName(id) {
				t.Fatalf("net %d name %q, oracle %q", e, got.NetName(id), want.NetName(id))
			}
		}
		if got.nodeNames != nil || (!named && got.netNames != nil) {
			t.Fatalf("an unnamed graph stores names: %d node names, %d net names", len(got.nodeNames), len(got.netNames))
		}
	})
}
