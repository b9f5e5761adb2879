package modeled

import "hwdp/internal/sim"

// precondition ages the drive before the run starts: a sequential fill
// of FillFrac of the host LBAs (the dataset ships on the drive), then
// ChurnOverwrites× that many random overwrites (seeded, so identical
// across runs) to scatter valid pages and draw down the
// spare pool the way months of service would — the state that makes GC
// fire during the run instead of never.
//
// Preconditioning is state-only: it drives the real allocation, mapping
// and GC machinery (so the resulting layout is one the FTL could really
// reach), but the work is snapshotted into PrecondPrograms/PrecondErases
// and every timeline, buffer and run counter is reset to zero — virtual
// time starts with the drive aged but idle.
func (m *Model) precondition(seed uint64) {
	fill := int64(m.cfg.FillFrac * float64(m.userPages))
	if fill > m.userPages {
		fill = m.userPages
	}
	for lba := int64(0); lba < fill; lba++ {
		m.precondWrite(lba)
	}
	if fill > 0 && m.cfg.ChurnOverwrites > 0 {
		rng := sim.NewRand(seed)
		churn := int64(m.cfg.ChurnOverwrites * float64(fill))
		for i := int64(0); i < churn; i++ {
			m.precondWrite(rng.Int63n(fill))
		}
	}
	// Snapshot the aging work, then reset everything timing-related: the
	// run observes an aged layout, not the aging itself.
	precondPrograms := m.st.FlashPrograms + m.st.GCPrograms
	precondErases := m.st.Erases
	m.st = Stats{PrecondPrograms: precondPrograms, PrecondErases: precondErases}
	for p := range m.planes {
		m.planes[p].busyAt = 0
	}
	for c := range m.chanBusy {
		m.chanBusy[c] = 0
	}
	for i := range m.blocks {
		m.blocks[i].lastMod = 0
	}
	m.flush = m.flush[:0]
	m.cache.init(m.cfg.MapEntries)
}

// precondWrite is one aging write: the full allocation/mapping/GC path
// with all timing pinned at t=0 (reset afterwards anyway) and no DRAM
// buffer involvement.
func (m *Model) precondWrite(lba int64) {
	ppn, _ := m.allocPage(0, false)
	m.st.FlashPrograms++
	m.writeSeq++
	m.ver[lba] = m.writeSeq
	m.mapMove(lba, ppn, 0)
}
