package mpisim

// Per-world freelists for the two objects every message needs: its
// Request and its delivery event. Only requests mpisim creates and waits
// on itself (Recv, SendRecv and the collectives) are recycled; a Request
// returned by Isend or Irecv belongs to the caller and is never reused.
// Recycling changes no event time or order, only which memory carries it.

// delivery is a message in flight to dst. fire is d.arrive bound once, so
// scheduling a recycled delivery allocates nothing.
type delivery struct {
	dst  *Rank
	msg  message
	fire func()
}

func (w *World) newDelivery() *delivery {
	if n := len(w.freeDeliveries); n > 0 {
		d := w.freeDeliveries[n-1]
		w.freeDeliveries = w.freeDeliveries[:n-1]
		return d
	}
	d := &delivery{}
	d.fire = d.arrive
	return d
}

// arrive hands the message to its destination at the arrival instant and
// returns d to the freelist.
func (d *delivery) arrive() {
	dst, msg := d.dst, d.msg
	d.dst = nil
	dst.world.freeDeliveries = append(dst.world.freeDeliveries, d)
	dst.deliver(msg)
}

func (w *World) newRequest(owner *Rank) *Request {
	if n := len(w.freeRequests); n > 0 {
		req := w.freeRequests[n-1]
		w.freeRequests = w.freeRequests[:n-1]
		req.owner = owner
		return req
	}
	return &Request{owner: owner}
}

// recycle returns completed requests to the freelist. The caller must
// hold the only reference to each: mpisim created them for its own use
// and has waited on them.
func (w *World) recycle(reqs ...*Request) {
	for _, req := range reqs {
		*req = Request{sent: req.sent}
		w.freeRequests = append(w.freeRequests, req)
	}
}
