package ssd

import "hwdp/internal/sim"

// MediaDone returns when the media work of command cid on queue qid ends,
// while the device holds the command.
func (d *Device) MediaDone(qid, cid uint16) (sim.Time, bool) {
	p := d.port(qid)
	if p == nil {
		return 0, false
	}
	fl, ok := p.inflight.Get(cid)
	if !ok {
		return 0, false
	}
	return fl.done, true
}
