package mux

import (
	"context"
	"sync"
	"sync/atomic"
)

// Pool keeps a small fixed set of connections toward one replica's mux
// listener and hands them out round-robin. Dials happen lazily on Get,
// at most one per slot at a time, and a dead connection is redialed by
// the next Get of its slot. The pool keeps no dial backoff of its own: a
// failed dial takes the replica out of the router's rotation, and the
// router's probe backoff paces the redials after that.
type Pool struct {
	addr string
	cfg  ClientConfig
	size int
	rr   atomic.Uint32

	mu      sync.Mutex
	conns   []*Conn
	dialing []chan struct{} // non-nil while a slot is being dialed; closed when the dial ends
	closed  bool
}

// NewPool builds a pool of size connections toward addr. cfg carries
// the expected fingerprint, window and shared counters.
func NewPool(addr string, size int, cfg ClientConfig) *Pool {
	if size <= 0 {
		size = DefaultConnsPerReplica
	}
	cfg.defaults()
	return &Pool{
		addr:    addr,
		cfg:     cfg,
		size:    size,
		conns:   make([]*Conn, size),
		dialing: make([]chan struct{}, size),
	}
}

// Addr returns the address this pool dials.
func (p *Pool) Addr() string { return p.addr }

// Fingerprint returns the snapshot fingerprint this pool expects.
func (p *Pool) Fingerprint() string { return p.cfg.Fingerprint }

// Get returns a live connection. It takes the next slot round-robin: a
// live connection there is returned at once, and an empty or dead slot
// is dialed (handshake included) before Get returns. When another
// caller is already dialing that slot, Get hands out any live slot
// instead, or else waits for that dial and, if it failed, dials the
// slot itself under its own ctx. An error is this caller's own dial
// failing.
func (p *Pool) Get(ctx context.Context) (*Conn, error) {
	i := int(p.rr.Add(1)) % p.size
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClosed
		}
		if cn := p.conns[i]; cn != nil && !cn.Dead() {
			p.mu.Unlock()
			return cn, nil
		}
		wait := p.dialing[i]
		if wait == nil {
			break
		}
		for _, cn := range p.conns {
			if cn != nil && !cn.Dead() {
				p.mu.Unlock()
				return cn, nil
			}
		}
		p.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		p.mu.Lock()
	}
	done := make(chan struct{})
	p.dialing[i] = done
	p.mu.Unlock()

	cn, err := Dial(ctx, p.addr, p.cfg)

	// Waiters wake on done but read the slot under p.mu, so they see
	// the new connection installed below.
	p.mu.Lock()
	p.dialing[i] = nil
	close(done)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	if p.closed {
		p.mu.Unlock()
		cn.Close()
		return nil, ErrClosed
	}
	if old := p.conns[i]; old != nil {
		old.fail(ErrClosed)
	}
	p.conns[i] = cn
	p.mu.Unlock()
	return cn, nil
}

// OpenConns counts live connections (feeds the reach_mux_conns gauge).
func (p *Pool) OpenConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, cn := range p.conns {
		if cn != nil && !cn.Dead() {
			n++
		}
	}
	return n
}

// Close tears down every connection; subsequent Gets fail with
// ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := make([]*Conn, len(p.conns))
	copy(conns, p.conns)
	p.mu.Unlock()
	for _, cn := range conns {
		if cn != nil {
			cn.Close()
		}
	}
}
