package mpisim

import (
	"testing"
	"time"
)

// A rank blocked in Wait parks on that one request: completing a different
// request of the same rank, by delivery or by an Isend finishing, must not
// wake it. A spurious wake would trip Wait's "woke with incomplete
// request" panic, which Run reports as an error.
func TestWaitNotWokenByOtherRequest(t *testing.T) {
	k, w := world(t, 3)
	const big = 1 << 20 // above the eager limit: completes on delivery
	var returned time.Duration
	var bDone, sDone bool
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			reqA := r.Irecv(1, 1)
			reqB := r.Irecv(2, 2)
			reqS := r.Isend(2, 3, big)
			r.Wait(reqA)
			returned = time.Duration(r.Now())
			bDone, sDone = reqB.done, reqS.done
			r.WaitAll(reqB, reqS)
		case 1:
			r.Proc().Sleep(3 * time.Second)
			r.Send(0, 1, 8)
		case 2:
			r.Recv(0, 3)
			r.Proc().Sleep(time.Second)
			r.Send(0, 2, 8)
		}
	})
	if !bDone || !sDone {
		t.Fatalf("reqB done %v, Isend done %v: both should finish before reqA", bDone, sDone)
	}
	if returned < 3*time.Second {
		t.Fatalf("Wait(reqA) returned at %v, before reqA's message was sent", returned)
	}
}

// Requests mpisim waits on itself are recycled; a Request handed to the
// caller is not, so it still reads as its own operation after the world
// has recycled many others.
func TestCallerRequestsNeverRecycled(t *testing.T) {
	k, w := world(t, 4)
	launch(t, k, w, func(r *Rank) {
		peer := r.ID() ^ 1
		rreq := r.Irecv(peer, 1)
		sreq := r.Isend(peer, 1, 100+r.ID())
		r.Wait(sreq)
		if got := r.Wait(rreq); got != 100+peer {
			t.Errorf("rank %d: received %d bytes, want %d", r.ID(), got, 100+peer)
		}
		for i := 0; i < 3; i++ {
			r.Alltoall(64)
			r.Barrier()
			r.SendRecv(peer, 8, peer, 8, 2)
		}
		for _, req := range w.freeRequests {
			if req == rreq || req == sreq {
				t.Errorf("rank %d: a caller's request is on the freelist", r.ID())
			}
		}
		if rreq.owner != r || !rreq.done || rreq.bytes != 100+peer || rreq.src != peer {
			t.Errorf("rank %d: caller's receive request changed after recycling: %+v", r.ID(), *rreq)
		}
	})
	if len(w.freeRequests) == 0 || len(w.freeDeliveries) == 0 {
		t.Fatalf("freelists empty after a run (%d requests, %d deliveries): nothing was recycled",
			len(w.freeRequests), len(w.freeDeliveries))
	}
}
