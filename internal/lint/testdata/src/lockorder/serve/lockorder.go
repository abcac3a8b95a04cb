// Package serve seeds lockorder violations: an acquisition-order cycle
// taken directly, one taken through a call, instance double locks (direct
// and via a method on the same receiver), and unordered same-class nesting
// — each next to the corrected or sanctioned form that must stay silent.
package serve

import "sync"

// ---- direct AB/BA cycle ----------------------------------------------------

type acct struct{ mu sync.Mutex }

type audit struct{ mu sync.Mutex }

func transfer(a *acct, l *audit) {
	a.mu.Lock()
	defer a.mu.Unlock()
	l.mu.Lock() // want "lock-order cycle: serve.audit.mu is acquired while holding serve.acct.mu"
	defer l.mu.Unlock()
}

// inspect takes the same pair in the opposite order; the cycle is reported
// once, at the first edge by position (in transfer above).
func inspect(a *acct, l *audit) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}

// ---- cycle closed through a call ------------------------------------------

type ring struct{ mu sync.Mutex }

type journal struct{ mu sync.Mutex }

func lockJournal(j *journal) {
	j.mu.Lock()
	j.mu.Unlock()
}

func rotate(r *ring, j *journal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lockJournal(j) // want "lock-order cycle: serve.journal.mu is acquired while holding serve.ring.mu"
}

func seal(r *ring, j *journal) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r.mu.Lock()
	r.mu.Unlock()
}

// ---- consistent order: clean ----------------------------------------------

type inbox struct{ mu sync.Mutex }

type outbox struct{ mu sync.Mutex }

func relay(i *inbox, o *outbox) {
	i.mu.Lock()
	defer i.mu.Unlock()
	o.mu.Lock()
	o.mu.Unlock()
}

func flushBoth(i *inbox, o *outbox) {
	i.mu.Lock()
	o.mu.Lock()
	o.mu.Unlock()
	i.mu.Unlock()
}

// ---- double lock, direct ---------------------------------------------------

type gauge struct{ mu sync.Mutex }

func double(g *gauge) {
	g.mu.Lock()
	g.mu.Lock() // want "double lock of serve.gauge.mu"
	g.mu.Unlock()
	g.mu.Unlock()
}

// reacquire is the corrected form: the first hold ends before the second.
func reacquire(g *gauge) {
	g.mu.Lock()
	g.mu.Unlock()
	g.mu.Lock()
	g.mu.Unlock()
}

// ---- double lock through a method on the same receiver ---------------------

type counterBox struct {
	mu sync.Mutex
	n  int
}

func (c *counterBox) bump() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// bumpLocked is the corrected helper: callers hold the lock, it does not.
func (c *counterBox) bumpLocked() { c.n++ }

func (c *counterBox) flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump() // want "calling bump while holding serve.counterBox.mu"
	c.bumpLocked()
	return c.n
}

// ---- same-class nesting: unordered vs declared ------------------------------

type node struct{ mu sync.Mutex }

func link(a, b *node) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "acquiring a second serve.node.mu instance"
	defer b.mu.Unlock()
}

// chain declares its self-nesting order, so parent-then-child is sanctioned.
type chain struct {
	//dkip:locks-after serve.chain.mu
	mu   sync.Mutex
	next *chain
}

func (c *chain) walk() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next != nil {
		c.next.mu.Lock()
		c.next.mu.Unlock()
	}
}

// ---- declared edge violated by an observed reverse acquisition -------------

type planner struct{ mu sync.Mutex }

// executor documents that its lock nests inside the planner's; acquiring
// them in the reverse order closes a cycle against the declared edge.
type executor struct {
	//dkip:locks-after serve.planner.mu
	mu sync.Mutex
}

func replan(p *planner, e *executor) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p.mu.Lock() // want "lock-order cycle: serve.planner.mu is acquired while holding serve.executor.mu"
	p.mu.Unlock()
}

func plan(p *planner, e *executor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e.mu.Lock() // the declared direction: clean
	e.mu.Unlock()
}
