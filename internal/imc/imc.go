// Package imc models the processor's integrated memory controller: one
// Channel per memory channel, each with a shared data bus and an
// ADR-protected write pending queue (WPQ).
//
// Stores become persistent the moment they are accepted into the WPQ
// (Section 2.1.1: the ADR domain includes the WPQs but not the caches), so
// Channel.PostWrite returns both the acceptance time — what sfence waits
// for — and the drain time at which the entry's slot frees.
package imc

import (
	"optanestudy/internal/dimm"
	"optanestudy/internal/sim"
)

// ChannelConfig holds per-channel timing and queue parameters.
type ChannelConfig struct {
	// BusTime is the data-bus occupancy of one 64 B transfer
	// (≈3.5 ns → ~18 GB/s per channel).
	BusTime sim.Time
	// WPQEntries is the write pending queue capacity in 64 B entries.
	WPQEntries int
}

// DefaultChannelConfig returns the calibrated channel parameters.
func DefaultChannelConfig() ChannelConfig {
	return ChannelConfig{
		BusTime:    3500 * sim.Picosecond,
		WPQEntries: 24,
	}
}

// Channel is one memory channel: a bus shared by the DIMMs on it, plus a
// WPQ per attached DIMM (the iMC maintains separate read/write pending
// queues for each DIMM).
type Channel struct {
	cfg ChannelConfig
	bus sim.Server

	wpqs      []wpqState // one per attached DIMM: a DRAM and an XP DIMM at most
	postCount int64
}

type wpqState struct {
	d         dimm.DIMM
	q         *sim.BoundedQueue
	lastDrain sim.Time
	stall     sim.Time
}

// NewChannel returns a channel with the given configuration.
func NewChannel(cfg ChannelConfig) *Channel {
	if cfg.WPQEntries < 1 {
		cfg.WPQEntries = 1
	}
	return &Channel{cfg: cfg}
}

// wpq returns d's queue state, scanning by identity: a channel carries so
// few DIMMs that this beats hashing the interface.
func (c *Channel) wpq(d dimm.DIMM) *wpqState {
	for i := range c.wpqs {
		if c.wpqs[i].d == d {
			return &c.wpqs[i]
		}
	}
	c.wpqs = append(c.wpqs, wpqState{d: d, q: sim.NewBoundedQueue(c.cfg.WPQEntries)})
	return &c.wpqs[len(c.wpqs)-1]
}

// Read performs a 64 B read of the given DIMM starting at time t and
// returns the time the data arrives back at the iMC.
func (c *Channel) Read(t sim.Time, d dimm.DIMM, addr int64) sim.Time {
	ready := d.ReadLine(t, addr)
	// The response occupies the shared channel bus.
	_, end := c.bus.Acquire(ready, c.cfg.BusTime)
	return end
}

// PostWrite enqueues a 64 B write. It returns the WPQ acceptance time (the
// persistence point inside the ADR domain) and the drain time at which the
// WPQ entry frees. The WPQ drains strictly in FIFO order, so one slow entry
// head-of-line blocks everything behind it — the Section 5.3 effect.
func (c *Channel) PostWrite(t sim.Time, d dimm.DIMM, addr int64) (accepted, drained sim.Time) {
	w := c.wpq(d)
	accepted = w.q.Admit(t)
	w.stall += accepted - t
	_, busEnd := c.bus.Acquire(accepted, c.cfg.BusTime)
	drained = d.WriteLine(busEnd, addr)
	if drained < w.lastDrain {
		drained = w.lastDrain // FIFO drain: no entry passes its predecessor
	}
	w.lastDrain = drained
	w.q.Push(accepted, drained)
	c.postCount++
	return accepted, drained
}

// WPQOccupancyTime reports a DIMM's cumulative WPQ entry-residency
// (utilization accounting; divide by WPQEntries × elapsed for the mean
// fill fraction).
func (c *Channel) WPQOccupancyTime(d dimm.DIMM) sim.Time {
	return c.wpq(d).q.OccupancyTime()
}

// WPQStallTime reports a DIMM's cumulative admission-stall time: how long
// posting stores sat blocked on a full WPQ before acceptance (the
// persistence point). A rising stall fraction is the earliest signal of a
// write-saturated DIMM — it appears before end-to-end latency moves.
func (c *Channel) WPQStallTime(d dimm.DIMM) sim.Time {
	return c.wpq(d).stall
}

// Posts returns the number of writes posted on this channel.
func (c *Channel) Posts() int64 { return c.postCount }

// BusBusy returns cumulative bus occupancy (utilization accounting).
func (c *Channel) BusBusy() sim.Time { return c.bus.BusyTime() }
