package delaunay

// flatFaceTable is a reusable open-addressing hash table mapping the
// directed boundary edges of a cavity's new tets to the tet that owns
// each (fillCavity's two-pass face matching). It is reset in O(1) by
// bumping an epoch and reuses its backing array across every insertion
// of a build, so the fill loop performs zero allocations in steady state.
// Keys are compared in full, so matching is exact.
type flatFaceTable struct {
	slots []faceSlot
	epoch uint32
	mask  uint64
}

// faceSlot is one entry; it is empty unless its epoch is the table's.
type faceSlot struct {
	key   uint64
	tet   int32
	epoch uint32
}

// reset prepares the table for up to n insertions without growing
// mid-fill (the caller knows the bound: three edges per new tet).
func (ft *flatFaceTable) reset(n int) {
	need := 2 * n
	if need < 16 {
		need = 16
	}
	if len(ft.slots) < need {
		sz := 16
		for sz < need {
			sz <<= 1
		}
		ft.slots = make([]faceSlot, sz)
		ft.epoch = 0
		ft.mask = uint64(sz - 1)
	}
	ft.epoch++
}

// dirEdgeKey names the directed edge a→b (Inf included).
func dirEdgeKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func (ft *flatFaceTable) home(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> 32 & ft.mask
}

// put records that tet owns the directed edge key. Each key is put at most
// once per epoch.
func (ft *flatFaceTable) put(key uint64, tet int32) {
	i := ft.home(key)
	for ft.slots[i].epoch == ft.epoch {
		i = (i + 1) & ft.mask
	}
	ft.slots[i] = faceSlot{key: key, tet: tet, epoch: ft.epoch}
}

// get returns the tet that put key this epoch, or NoTet.
func (ft *flatFaceTable) get(key uint64) int32 {
	for i := ft.home(key); ft.slots[i].epoch == ft.epoch; i = (i + 1) & ft.mask {
		if ft.slots[i].key == key {
			return ft.slots[i].tet
		}
	}
	return NoTet
}
