package mpisim

import "math/bits"

// Collective algorithms over point-to-point, matching the classic MPICH
// implementations. Every rank of the world must call the same collectives
// in the same order; per-rank sequence numbers generate matching internal
// tags (negative, so they never collide with application tags ≥ 0).

// MaxRanks is the largest world NewWorld accepts. It is also the number
// of tag rounds collTag reserves per collective: Alltoall uses rounds
// 1..n−1, so in a larger world its tail rounds would reuse the next
// collective's tags.
const MaxRanks = 64

// collTag returns the internal tag for collective seq/round.
func (r *Rank) collTag(round int) int {
	return -(1 + r.collSeq*MaxRanks + round)
}

// nextColl advances the per-rank collective sequence (call once per
// collective, after computing all of its tags via closures).
func (r *Rank) nextColl() { r.collSeq++ }

// emitColl wraps a collective body with the phase-policy hooks and a
// trace event. The policy runs outside the traced interval, matching a
// PMPI shim that surrounds the real MPI call.
func (r *Rank) emitColl(name string, bytes int, body func()) {
	if pol := r.world.policy; pol != nil {
		pol.BeforeCollective(r, name, bytes)
	}
	start := r.Now()
	body()
	r.world.emit(r.id, EvCollective, name, start, r.Now(), bytes, -1)
	if pol := r.world.policy; pol != nil {
		pol.AfterCollective(r, name, bytes)
	}
}

// Barrier synchronizes all ranks (dissemination algorithm: ⌈log₂ n⌉
// rounds of staggered zero-byte exchanges).
func (r *Rank) Barrier() {
	n := r.Size()
	r.emitColl("barrier", 0, func() {
		if n == 1 {
			return
		}
		for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
			dst := (r.id + dist) % n
			src := (r.id - dist + n) % n
			tag := r.collTag(round)
			r.exchange(dst, src, tag, 0)
		}
		r.nextColl()
	})
}

// Allreduce combines bytes across all ranks (recursive doubling for
// power-of-two worlds; fall back to a binomial reduce to rank 0 and a
// binomial broadcast back otherwise).
func (r *Rank) Allreduce(bytes int) {
	n := r.Size()
	if n&(n-1) != 0 {
		r.emitColl("allreduce", bytes, func() {
			r.reduceToRoot(bytes)
			r.bcastFromRoot(bytes)
		})
		return
	}
	r.emitColl("allreduce", bytes, func() {
		for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
			partner := r.id ^ dist
			tag := r.collTag(round)
			r.exchange(partner, partner, tag, bytes)
		}
		r.nextColl()
	})
}

// reduceToRoot combines bytes from every rank at rank 0 (binomial tree,
// leaves inward). The reduction compute itself is charged by the caller's
// workload model; this models only the message traffic.
func (r *Rank) reduceToRoot(bytes int) {
	n := r.Size()
	for dist := 1; dist < n; dist *= 2 {
		if r.id&dist != 0 {
			r.Send(r.id-dist, r.collTag(dist), bytes)
			break
		}
		if r.id+dist < n {
			r.Recv(r.id+dist, r.collTag(dist))
		}
	}
	r.nextColl()
}

// bcastFromRoot broadcasts bytes from rank 0 via a binomial tree: receive
// from the parent (the rank with the highest set bit cleared), then
// forward to the children.
func (r *Rank) bcastFromRoot(bytes int) {
	n := r.Size()
	if r.id != 0 {
		r.Recv(r.id&^(1<<(bits.Len(uint(r.id))-1)), r.collTag(0))
	}
	for dist := nextPow2(r.id + 1); r.id+dist < n; dist *= 2 {
		r.Send(r.id+dist, r.collTag(0), bytes)
	}
	r.nextColl()
}

// Alltoall exchanges bytesPerPair with every other rank (pairwise
// exchange: n−1 rounds of SendRecv with rotating partners). This is the
// operation that dominates FT.
func (r *Rank) Alltoall(bytesPerPair int) {
	n := r.Size()
	r.emitColl("alltoall", bytesPerPair*(n-1), func() {
		for i := 1; i < n; i++ {
			dst := (r.id + i) % n
			src := (r.id - i + n) % n
			tag := r.collTag(i)
			r.exchange(dst, src, tag, bytesPerPair)
		}
		r.nextColl()
	})
}

// Alltoallv exchanges bytesTo[d] with each destination d, posting all
// operations at once the way MPICH 1.2.5 implements MPI_Alltoallv — the
// bursty injection that triggers receive-port contention for IS.
func (r *Rank) Alltoallv(bytesTo []int) {
	n := r.Size()
	if len(bytesTo) != n {
		panic("mpisim: Alltoallv size mismatch")
	}
	total := 0
	for _, b := range bytesTo {
		total += b
	}
	r.emitColl("alltoallv", total, func() {
		reqs := make([]*Request, 0, 2*(n-1))
		for i := 1; i < n; i++ {
			src := (r.id - i + n) % n
			reqs = append(reqs, r.Irecv(src, r.collTag(0)))
		}
		for i := 1; i < n; i++ {
			dst := (r.id + i) % n
			reqs = append(reqs, r.Isend(dst, r.collTag(0), bytesTo[dst]))
		}
		r.WaitAll(reqs...)
		r.world.recycle(reqs...)
		r.nextColl()
	})
}

func nextPow2(x int) int {
	p := 1
	for p < x {
		p *= 2
	}
	return p
}
