package hwmon

import "optimus/internal/obs"

// muxNode is one multiplexer in the tree. Upstream (accelerator → shell)
// requests from its children are arbitrated round-robin and serialized at
// one cache line per tree cycle; a traversal additionally costs the node's
// pipeline latency (~33 ns per level, §6.3). The tree does not inspect
// addresses — routing decisions are made lazily by the auditors (§4.1).
//
// A node holds at most one request in its serializer and any number in its
// pipeline-latency stage. Requests travel through the tree as pointers to
// their pooled inflight records, queued in wraparound rings and driven by
// event closures built once at construction, so arbitration and forwarding
// neither copy requests nor allocate in steady state.
type muxNode struct {
	m      *Monitor
	out    func(*inflight)
	queues []ring // one per child
	busy   bool
	rr     int
	// root nodes additionally observe the shell's credit-based flow
	// control: without credits the root stalls, queues back up, and the
	// per-node round-robin arbiters — not the link FIFOs — divide the
	// bandwidth among accelerators.
	root bool

	inService *inflight // request occupying the serializer
	pipe      ring      // requests in the level-latency pipeline, FIFO
	served    func()    // serializer-drained event, built once
	emit      func()    // pipeline-emission event, built once
	kickFn    func()    // credit-waiter callback, built once
}

// ring is a wraparound FIFO of queued requests over a power-of-two array.
// It doubles only when full, so its storage stays bounded by the peak
// occupancy even under saturation, when a queue may never drain. Popped
// slots are cleared so the array holds no stale record pointers.
type ring struct {
	buf  []*inflight
	head int // index of the oldest entry
	n    int
}

func (r *ring) empty() bool { return r.n == 0 }

// peek returns the oldest entry without removing it.
func (r *ring) peek() *inflight { return r.buf[r.head] }

//optimus:hotpath
func (r *ring) push(fl *inflight) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = fl
	r.n++
}

//optimus:hotpath
func (r *ring) pop() *inflight {
	fl := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return fl
}

// grow doubles the storage (allocating it on first use), unwrapping the
// entries to start at index zero.
func (r *ring) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]*inflight, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

func newMuxNode(m *Monitor, children int, out func(*inflight)) *muxNode {
	n := &muxNode{m: m, out: out, queues: make([]ring, children)}
	n.served = n.onServed
	n.emit = n.onEmit
	n.kickFn = n.kick
	return n
}

// accept enqueues one request from a child port.
//
//optimus:hotpath
func (n *muxNode) accept(child int, fl *inflight) {
	n.queues[child].push(fl)
	n.kick()
}

//optimus:hotpath
func (n *muxNode) kick() {
	if n.busy {
		return
	}
	pick := -1
	for i := 0; i < len(n.queues); i++ {
		c := (n.rr + i) % len(n.queues)
		if !n.queues[c].empty() {
			pick = c
			break
		}
	}
	if pick < 0 {
		return
	}
	cq := &n.queues[pick]
	// Peek before popping: a credit stall must leave the request queued.
	fl := cq.peek()
	lines := fl.req.Lines
	if n.root {
		if !n.m.credits.tryAcquire(lines) {
			if tr := n.m.tr; tr != nil {
				tr.Emit(n.m.k.Now(), obs.KindMuxStall, obs.PA(fl.req.Tag.AccelID),
					uint64(lines), uint64(n.m.credits.inflight))
			}
			n.m.credits.waiter = n.kickFn
			return
		}
		fl.creditLines = lines // given back when the response returns (inflight.Complete)
	}
	cq.pop()
	n.rr = (pick + 1) % len(n.queues)
	n.busy = true
	n.inService = fl
	n.m.k.After(n.m.clock.Cycles(int64(lines)), n.served)
}

// onServed fires when the serializer drains: free it, move the request into
// the pipeline-latency stage, and arbitrate the next one. Emission times
// strictly increase per node (service is ≥ one cycle), so the pipeline is
// FIFO and one shared emit closure drains it in order.
//
//optimus:hotpath
func (n *muxNode) onServed() {
	n.busy = false
	n.pipe.push(n.inService)
	n.inService = nil
	n.m.k.After(n.m.cfg.LevelLatency, n.emit)
	n.kick()
}

//optimus:hotpath
func (n *muxNode) onEmit() { n.out(n.pipe.pop()) }

// buildTree wires the upstream multiplexer tree for n accelerators and
// fills m.entries with each accelerator's leaf-injection function. With a
// single accelerator no multiplexer is instantiated.
func buildTree(m *Monitor, n int) *muxNode {
	// The shell boundary is where the request leaves its pooled record: the
	// shell copies it once into its own completion record.
	toShell := func(fl *inflight) { m.shell.Issue(fl.req) }
	if n == 1 {
		m.entries = []func(*inflight){toShell}
		return nil
	}
	var root *muxNode
	m.entries = attachSubtree(m, n, func(node *muxNode) { root = node; node.root = true }, toShell)
	return root
}

// attachSubtree connects count accelerators beneath an output function,
// creating multiplexer nodes as required by the topology, and returns the
// leaf entry functions in accelerator order.
func attachSubtree(m *Monitor, count int, noteRoot func(*muxNode), out func(*inflight)) []func(*inflight) {
	if count <= 1 {
		return []func(*inflight){out}
	}
	groups := m.cfg.Topology.Arity
	if m.cfg.Topology.Flat || groups < 2 {
		groups = count
	}
	if groups > count {
		groups = count
	}
	node := newMuxNode(m, groups, out)
	if noteRoot != nil {
		noteRoot(node)
	}
	var entries []func(*inflight)
	base, rem := count/groups, count%groups
	for g := 0; g < groups; g++ {
		c := base
		if g < rem {
			c++
		}
		g := g
		sub := attachSubtree(m, c, nil, func(fl *inflight) { node.accept(g, fl) })
		entries = append(entries, sub...)
	}
	return entries
}
