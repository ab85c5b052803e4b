package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"talus"
	"talus/internal/cluster"
	"talus/internal/serve"
	"talus/internal/store"
)

// tickSlot is one client's share of the logical clock, alone on its
// cache line: the client advances it once per op, the store reads the
// sum. No wall-clock time ever reaches the program under test.
type tickSlot struct {
	n atomic.Int64
	_ [56]byte
}

var logicalEpoch = time.Date(2015, 2, 7, 0, 0, 0, 0, time.UTC)

// rigOpts are the interposition points of a rig. The zero value is an
// untraced rig on the default ports.
type rigOpts struct {
	basePort    int
	tr          *tracer                           // spans around handlers and backend calls (off until tr.on)
	rec         store.Recorder                    // node 0's (partition, address) stream
	wrapBackend func(store.Backend) store.Backend // tests: a corrupting backend
	wrapHandler func(http.Handler) http.Handler   // tests: a failing handler
}

// rig is the program under test, hosted in-process: one store per node
// over a shared counting backend and, for HTTP workloads, one
// serve.Handler per node behind an http.Server on a loopback listener.
type rig struct {
	spec     *spec
	in       *inputs
	be       *backend
	model    *model
	ticks    []tickSlot
	stores   []*store.Store
	ring     *cluster.Ring // nil with one node
	addrs    []string      // node addresses (HTTP only)
	handlers []http.Handler
	servers  []*http.Server
	serving  sync.WaitGroup
}

func newRig(s *spec, in *inputs, clients int, o rigOpts) (_ *rig, err error) {
	r := &rig{spec: s, in: in, be: newBackend(in), model: newModel(len(in.keys)), ticks: make([]tickSlot, clients)}
	r.be.tr = o.tr
	var be store.Backend = r.be
	if o.wrapBackend != nil {
		be = o.wrapBackend(be)
	}
	now := func() time.Time {
		var ticks int64
		for i := range r.ticks {
			ticks += r.ticks[i].n.Load()
		}
		return logicalEpoch.Add(time.Duration(ticks) * time.Microsecond)
	}

	var listeners []net.Listener
	defer func() {
		if err != nil {
			for _, ln := range listeners[len(r.servers):] { // not yet owned by a server
				ln.Close()
			}
			r.close()
		}
	}()
	if s.http {
		for i := 0; i < s.nodes; i++ {
			addr := "127.0.0.1:0"
			if s.nodes > 1 {
				// Ring ownership is a pure function of the node names, so
				// the names — the addresses — must not change run to run.
				addr = fmt.Sprintf("127.0.0.1:%d", o.basePort+i)
			}
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				return nil, fmt.Errorf("node %d: %w (is another benchmark running? -base-port moves the block)", i, err)
			}
			listeners = append(listeners, ln)
			r.addrs = append(r.addrs, ln.Addr().String())
		}
	} else {
		for i := 0; i < s.nodes; i++ {
			r.addrs = append(r.addrs, fmt.Sprintf("node%d", i))
		}
	}
	if s.nodes > 1 {
		ring, err := cluster.NewRing(r.addrs, ringVNodes, ringSeed)
		if err != nil {
			return nil, err
		}
		r.ring = ring
	}

	for i := 0; i < s.nodes; i++ {
		opts := []talus.Option{
			talus.WithCapacity(s.lines),
			talus.WithShards(numShards),
			talus.WithPartitions(len(s.tenants)),
			talus.WithAdaptive(talus.AdaptiveConfig{EpochAccesses: epochAccesses, Seed: cacheSeed}),
			talus.WithBackend(be),
			talus.WithNodeID(r.addrs[i]),
		}
		if s.static {
			opts = append(opts, talus.WithStaticTenants(s.tenants...))
		}
		if s.maxBytes > 0 {
			opts = append(opts, talus.WithMaxBytes(s.maxBytes))
		}
		st, err := talus.NewStore(opts...)
		if err != nil {
			return nil, err
		}
		st.SetNow(now)
		if i == 0 && o.rec != nil {
			if err := st.SetRecorder(o.rec); err != nil {
				return nil, err
			}
		}
		r.stores = append(r.stores, st)
		if !s.http {
			continue
		}
		cfg := serve.Config{}
		if s.nodes > 1 {
			cl, err := cluster.New(cluster.Config{Self: r.addrs[i], Nodes: r.addrs, VNodes: ringVNodes, Seed: ringSeed})
			if err != nil {
				return nil, err
			}
			cfg.Cluster = cl
		}
		var h http.Handler = serve.NewHandler(st, cfg)
		if o.wrapHandler != nil {
			h = o.wrapHandler(h)
		}
		if o.tr != nil {
			h = tracedHandler{h: h, tr: o.tr}
		}
		r.handlers = append(r.handlers, h)
		srv := &http.Server{Handler: h}
		r.servers = append(r.servers, srv)
		r.serving.Add(1)
		go func(ln net.Listener) {
			defer r.serving.Done()
			srv.Serve(ln) // returns when close() closes the server
		}(listeners[i])
	}
	return r, nil
}

// tracedHandler records one span per handler pass: the entry pass on
// the node the client dialled and, when that node forwards, the owner
// pass nested inside it.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := spanHandlerEntry
	if r.Header.Get(cluster.ForwardedHeader) != "" {
		name = spanHandlerOwner
	}
	id := t.tr.begin(name)
	t.h.ServeHTTP(w, r)
	t.tr.end(id)
}

// owner returns the index of the node that owns key.
func (r *rig) owner(key uint32) int {
	if r.ring == nil {
		return 0
	}
	name := r.ring.Route(r.in.tenant(key), r.in.keys[key])
	for i, a := range r.addrs {
		if a == name {
			return i
		}
	}
	panic("bench: ring routed to a node that is not a member")
}

// preload writes version 1 of every key to the node the ring assigns
// it, in key order, so the backend holds every key and auto-registered
// tenants claim their partitions in a fixed order.
func (r *rig) preload() error {
	buf := make([]byte, 1<<16)
	for k := range r.in.keys {
		key := uint32(k)
		v := buf[:r.in.sizes[k]]
		fillValue(v, key, 1)
		if _, err := r.stores[r.owner(key)].Set(r.in.tenant(key), r.in.keys[k], v); err != nil {
			return fmt.Errorf("preload %s: %w", r.in.keys[k], err)
		}
		r.model.set(key, 1)
	}
	return nil
}

// close stops the servers and waits for them.
func (r *rig) close() error {
	var errs []error
	for _, srv := range r.servers {
		errs = append(errs, srv.Close())
	}
	r.serving.Wait()
	for _, st := range r.stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}
