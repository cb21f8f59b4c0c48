package geom

// SetOracleFallback toggles the big.Rat oracle fallback for all three
// predicates and returns the previous setting. The oracle and the adaptive
// tiers return identical signs on every input, so this changes performance
// (and allocation behavior), never results.
func SetOracleFallback(on bool) (prev bool) {
	return oracleExact.Swap(on)
}
