package hypergraph

// CutCapacity returns the total capacity of nets crossing the bipartition
// given by inA (nets with pins both inside and outside), together with the
// number of crossing nets.
func (h *Hypergraph) CutCapacity(inA []bool) (capacity float64, nets int) {
	for e := 0; e < h.NumNets(); e++ {
		var sawA, sawB bool
		for _, v := range h.Pins(NetID(e)) {
			if inA[v] {
				sawA = true
			} else {
				sawB = true
			}
			if sawA && sawB {
				capacity += h.netCaps[e]
				nets++
				break
			}
		}
	}
	return capacity, nets
}
