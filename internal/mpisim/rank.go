package mpisim

import (
	"fmt"
	"time"

	"repro/internal/dvs"
	"repro/internal/node"
	"repro/internal/sim"
)

// Rank is one MPI process, bound to a node and a sim proc. All methods
// must be called from the rank's own body function.
type Rank struct {
	world *World
	id    int
	node  *node.Node
	proc  *sim.Proc

	mailbox []message  // delivered, unmatched messages (arrival order)
	posted  []*Request // posted, unmatched Irecvs (post order)
	stats   Stats
	collSeq int // per-rank collective sequence number for internal tags
	// commColl tracks per-communicator collective sequences (comm.go).
	commColl map[int]int
	// sendSeq/recvSeq implement the CheckOrdering verifier: the next
	// sequence number per destination / the last matched per source.
	sendSeq map[int]uint64
	recvSeq map[int]uint64
}

// message is a delivered payload descriptor.
type message struct {
	src, tag, bytes int
	// seq is the per-(src,dst) send sequence number, used by the
	// CheckOrdering verifier.
	seq uint64
}

// Request is a nonblocking-operation handle.
type Request struct {
	owner *Rank
	done  bool
	bytes int
	seq   uint64 // matched message's sequence (CheckOrdering)
	// recv matching state (recv requests only)
	isRecv   bool
	src, tag int
	// waiter is the owner's proc while it is parked in Wait on this
	// request; a request has no other waiter.
	waiter *sim.Proc
	// sent is req.complete bound once, so a recycled request schedules
	// its Isend completion without allocating a closure.
	sent func()
}

// complete marks req done and unparks its owner if it waits on it.
func (req *Request) complete() {
	req.done = true
	if p := req.waiter; p != nil {
		req.waiter = nil
		p.Unpark()
	}
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.world.ranks) }

// Node returns the node this rank runs on.
func (r *Rank) Node() *node.Node { return r.node }

// Proc returns the rank's sim proc.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Stats returns the rank's accumulated time breakdown.
func (r *Rank) Stats() Stats { return r.stats }

// SetSpeed is the PowerPack application-level DVS API (paper §3.3,
// Figure 10/13: call set_cpuspeed around code regions). The caller pays
// the software cost of the cpufreq write at the *current* frequency, then
// the hardware transition stall is charged to subsequent work.
func (r *Rank) SetSpeed(f dvs.MHz) {
	if cost := r.world.cfg.SetSpeedCostMcyc; cost > 0 && r.proc != nil {
		r.node.ComputeWith(r.proc, cost, dvs.ActCompute)
	}
	if err := r.node.SetFrequency(f); err != nil {
		panic(fmt.Sprintf("rank %d: SetSpeed: %v", r.id, err))
	}
}

// Compute runs megacycles of CPU-bound work.
func (r *Rank) Compute(megacycles float64) {
	start := r.Now()
	r.node.Compute(r.proc, megacycles)
	end := r.Now()
	r.stats.Compute += end.Sub(start)
	r.world.emit(r.id, EvCompute, "compute", start, end, 0, -1)
}

// MemoryStall runs d of frequency-insensitive memory-bound work.
func (r *Rank) MemoryStall(d time.Duration) {
	start := r.Now()
	r.node.MemoryStall(r.proc, d)
	end := r.Now()
	r.stats.Memory += end.Sub(start)
	r.world.emit(r.id, EvMemory, "memory", start, end, 0, -1)
}

// DiskIO blocks the rank on d of disk I/O (iowait: the CPU idles, the
// disk works, and utilization accounting shows idle time).
func (r *Rank) DiskIO(d time.Duration) {
	start := r.Now()
	r.node.DiskStall(r.proc, d)
	end := r.Now()
	r.stats.Disk += end.Sub(start)
	r.world.emit(r.id, EvDisk, "disk", start, end, 0, -1)
}

// overheadMcyc returns the CPU cost of handling a message of the given size.
func (r *Rank) overheadMcyc(base float64, bytes int) float64 {
	return base + r.world.cfg.OverheadPerKBMcyc*float64(bytes)/1024
}

// transferSpan accounts a communication-active interval ending at a
// precomputed absolute time.
func (r *Rank) transferSpan(until sim.Time) {
	if until <= r.Now() {
		return
	}
	start := r.Now()
	r.node.Span(dvs.ActCommTransfer, 1.0, func() {
		r.proc.Sleep(until.Sub(start))
	})
	r.stats.Transfer += r.Now().Sub(start)
}

// waitVisibility returns how busy a blocked MPI call appears to
// /proc-style accounting under the configured wait policy.
func (r *Rank) waitVisibility() float64 {
	if r.world.cfg.SpinWait {
		return 1.0
	}
	return r.node.WaitBusyFrac()
}

// waitActivity returns the CPU activity profile of a blocked MPI call.
func (r *Rank) waitActivity() dvs.Activity {
	a := dvs.ActCommWait
	if r.world.cfg.SpinWait {
		a.CPU = 1.0
	}
	return a
}

// waitSpan parks the rank at communication-wait activity until a request
// completion unparks it.
func (r *Rank) waitSpan() {
	start := r.Now()
	r.node.Span(r.waitActivity(), r.waitVisibility(), r.proc.Park)
	r.stats.Wait += r.Now().Sub(start)
}

// Send transmits bytes to dst with the given tag (tag must be ≥ 0 for
// application messages). It blocks until the message is on the wire
// (eager) or delivered (rendezvous, above the eager limit).
func (r *Rank) Send(dst, tag, bytes int) {
	start := r.Now()
	txDone, completeAt := r.post(dst, tag, bytes)
	// Uplink serialization: the CPU streams the data out.
	r.transferSpan(txDone)
	if completeAt > r.Now() {
		// Rendezvous tail: waiting for the receiver to drain.
		startW := r.Now()
		r.node.Span(r.waitActivity(), r.waitVisibility(), func() {
			r.proc.Sleep(completeAt.Sub(startW))
		})
		r.stats.Wait += r.Now().Sub(startW)
	}
	r.world.emit(r.id, EvSend, "send", start, r.Now(), bytes, dst)
}

// Isend starts a nonblocking send and returns its request. The CPU
// overhead is charged immediately; the wire transfer proceeds in the
// background.
func (r *Rank) Isend(dst, tag, bytes int) *Request {
	start := r.Now()
	_, completeAt := r.post(dst, tag, bytes)
	req := r.world.newRequest(r)
	req.bytes = bytes
	if completeAt <= r.Now() {
		req.done = true
	} else {
		if req.sent == nil {
			req.sent = req.complete
		}
		r.world.k.At(completeAt, req.sent)
	}
	r.world.emit(r.id, EvSend, "isend", start, r.Now(), bytes, dst)
	return req
}

// post charges the send-side CPU overhead, puts the message on the wire
// and schedules its delivery at dst. It returns when the uplink is free
// and when the send completes: txDone for eager messages, the arrival for
// rendezvous ones.
func (r *Rank) post(dst, tag, bytes int) (txDone, completeAt sim.Time) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("rank %d: send to invalid rank %d", r.id, dst))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("rank %d: negative message size", r.id))
	}
	w := r.world
	// Software overhead: packetization and copies, at comm activity.
	startOv := r.Now()
	r.node.ComputeWith(r.proc, r.overheadMcyc(w.cfg.SendOverheadMcyc, bytes), dvs.ActCommTransfer)
	r.stats.Transfer += r.Now().Sub(startOv)
	r.stats.Messages++
	r.stats.Bytes += int64(bytes)

	txDone, arrive, err := w.net.Transfer(r.id, dst, bytes)
	if err != nil {
		panic(fmt.Sprintf("rank %d: %v", r.id, err))
	}
	// Deliver at the destination at the arrival instant.
	msg := message{src: r.id, tag: tag, bytes: bytes}
	if w.cfg.CheckOrdering {
		if r.sendSeq == nil {
			r.sendSeq = map[int]uint64{}
		}
		r.sendSeq[dst]++
		msg.seq = r.sendSeq[dst]
	}
	d := w.newDelivery()
	d.dst, d.msg = w.ranks[dst], msg
	w.k.At(arrive, d.fire)
	if bytes > w.cfg.EagerLimit {
		return txDone, arrive // rendezvous
	}
	return txDone, txDone
}

// deliver matches an arriving message against posted receives, else
// enqueues it. Runs inside a kernel At callback.
func (r *Rank) deliver(m message) {
	for i, req := range r.posted {
		if req.matches(m) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			req.bytes = m.bytes
			req.src = m.src
			req.seq = m.seq
			req.complete()
			return
		}
	}
	r.mailbox = append(r.mailbox, m)
}

func (req *Request) matches(m message) bool {
	return (req.src == AnySource || req.src == m.src) && req.tag == m.tag
}

// Irecv posts a nonblocking receive for a message from src (or AnySource)
// with the given tag.
func (r *Rank) Irecv(src, tag int) *Request {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("rank %d: recv from invalid rank %d", r.id, src))
	}
	req := r.world.newRequest(r)
	req.isRecv, req.src, req.tag = true, src, tag
	// Match already-delivered messages first (arrival order).
	for i, m := range r.mailbox {
		if req.matches(m) {
			r.mailbox = append(r.mailbox[:i], r.mailbox[i+1:]...)
			req.done = true
			req.bytes = m.bytes
			req.src = m.src
			req.seq = m.seq
			return req
		}
	}
	r.posted = append(r.posted, req)
	return req
}

// Wait blocks until req completes and returns the message size (for
// receives). The blocked time is CPU slack at communication-wait activity.
func (r *Rank) Wait(req *Request) int {
	if req.owner != r {
		panic(fmt.Sprintf("rank %d: waiting on foreign request", r.id))
	}
	start := r.Now()
	if !req.done {
		req.waiter = r.proc
		r.waitSpan()
		if !req.done {
			panic(fmt.Sprintf("rank %d: woke with incomplete request", r.id))
		}
	}
	if req.isRecv {
		if r.world.cfg.CheckOrdering && req.seq > 0 {
			// MPI non-overtaking: same-pair messages must match in send
			// order. (Different tags may be *received* out of order by
			// the application, but a matched message must never have a
			// lower sequence than one already matched from that source
			// with the same tag — we verify per (src, tag).)
			if r.recvSeq == nil {
				r.recvSeq = map[int]uint64{}
			}
			key := req.src<<20 | (req.tag & 0xFFFFF)
			if last := r.recvSeq[key]; req.seq < last {
				panic(fmt.Sprintf("rank %d: ordering violation from %d tag %d: seq %d after %d",
					r.id, req.src, req.tag, req.seq, last))
			}
			r.recvSeq[key] = req.seq
		}
		// Receive-side software overhead.
		ovStart := r.Now()
		r.node.ComputeWith(r.proc, r.overheadMcyc(r.world.cfg.RecvOverheadMcyc, req.bytes), dvs.ActCommTransfer)
		r.stats.Transfer += r.Now().Sub(ovStart)
		r.stats.Messages++
		r.stats.Bytes += int64(req.bytes)
	}
	r.world.emit(r.id, EvWait, "wait", start, r.Now(), req.bytes, req.src)
	return req.bytes
}

// WaitAll waits for every request.
func (r *Rank) WaitAll(reqs ...*Request) {
	for _, q := range reqs {
		r.Wait(q)
	}
}

// Recv blocks until a matching message is received; it returns the size.
func (r *Rank) Recv(src, tag int) int {
	start := r.Now()
	req := r.Irecv(src, tag)
	n := r.Wait(req)
	r.world.recycle(req)
	r.world.emit(r.id, EvRecv, "recv", start, r.Now(), n, src)
	return n
}

// SendRecv exchanges messages with a partner (send to dst, receive from
// src), overlapping the two directions like MPI_Sendrecv.
func (r *Rank) SendRecv(dst, sendBytes, src, recvBytes, tag int) {
	_ = recvBytes // size is announced by the incoming message itself
	r.exchange(dst, src, tag, sendBytes)
}

// exchange is SendRecv's body, shared with the collectives' pairwise
// rounds. Its requests never leave mpisim, so they are recycled.
func (r *Rank) exchange(dst, src, tag, bytes int) {
	rreq := r.Irecv(src, tag)
	sreq := r.Isend(dst, tag, bytes)
	r.Wait(sreq)
	r.Wait(rreq)
	r.world.recycle(sreq, rreq)
}
