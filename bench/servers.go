package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// seams are the public places the traced run wraps to see each layer
// from outside; the zero value wraps nothing, which is how every timed
// end-to-end run is built.
type seams struct {
	handler   func(layer string, h http.Handler) http.Handler
	store     func(s durable.Store) durable.Store
	transport func(rt http.RoundTripper) http.RoundTripper
}

// stack is one workload's servers: the daemons' own handlers, each
// configured the way its command configures it, on real loopback
// listeners.
type stack struct {
	url     string            // where clients post
	asimds  []*service.Server // every asimd, front or shard
	urls    []string          // their base URLs, parallel to asimds
	closers []func()
}

// close stops every server and removes the durable state.
func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}

// listen serves h on a fresh loopback port, the way the daemons serve
// theirs, and returns its base URL.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed at Shutdown
	}()
	st.closers = append(st.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// asimdConfig is the configuration command asimd builds from this
// command line: the daemon's own flag defaults and its own assembly of
// them (the adaptive gang planner included), and its logger at the
// default level writing to nowhere. The benchmark cannot drift from the
// daemon, because it asks the daemon's own code.
func asimdConfig(args ...string) (service.Config, error) {
	fs := flag.NewFlagSet("asimd", flag.ContinueOnError)
	f := service.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return service.Config{}, err
	}
	cfg := f.Config()
	var err error
	cfg.Log, err = telemetry.NewLogger(io.Discard, f.LogLevel, f.LogFormat)
	return cfg, err
}

// asimcoordConfig is asimdConfig for command asimcoord.
func asimcoordConfig(args ...string) (cluster.Config, error) {
	fs := flag.NewFlagSet("asimcoord", flag.ContinueOnError)
	f := cluster.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cluster.Config{}, err
	}
	cfg := f.Config()
	var err error
	cfg.Log, err = telemetry.NewLogger(io.Discard, f.LogLevel, f.LogFormat)
	return cfg, err
}

func wrapHandler(sm seams, layer string, h http.Handler) http.Handler {
	if sm.handler == nil {
		return h
	}
	return sm.handler(layer, h)
}

// buildStack stands up the servers for one topology. stateRoot is
// where a durable store's directory is made.
func buildStack(topo topology, sm seams, stateRoot string) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	switch topo {
	case topoSingle, topoDurable:
		cfg, err := asimdConfig()
		if err != nil {
			return nil, err
		}
		if topo == topoDurable { // asimd -state-dir
			dir, err := os.MkdirTemp(stateRoot, "state-")
			if err != nil {
				return nil, err
			}
			st.closers = append(st.closers, func() { os.RemoveAll(dir) })
			fs, err := durable.OpenFileStore(dir)
			if err != nil {
				return nil, err
			}
			st.closers = append(st.closers, func() { fs.Close() })
			cfg.Store = fs
			if sm.store != nil {
				cfg.Store = sm.store(fs)
			}
		}
		srv := service.New(cfg)
		if cfg.Store != nil {
			if _, err := srv.Recover(); err != nil {
				return nil, err
			}
		}
		st.asimds = append(st.asimds, srv)
		st.url, err = st.listen(wrapHandler(sm, "service.handle", srv))
		st.urls = []string{st.url}
		return st, err

	case topoCoord:
		for range 2 {
			// One engine worker per shard: two shards fill the two
			// pinned cores without oversubscribing them.
			cfg, err := asimdConfig("-shard", "-workers", "1")
			if err != nil {
				return nil, err
			}
			srv := service.New(cfg)
			st.asimds = append(st.asimds, srv)
			u, err := st.listen(wrapHandler(sm, "service.handle", srv))
			if err != nil {
				return nil, err
			}
			st.urls = append(st.urls, u)
		}
		cfg, err := asimcoordConfig("-shards", strings.Join(st.urls, ","))
		if err != nil {
			return nil, err
		}
		if sm.transport != nil {
			cfg.Client = &http.Client{Transport: sm.transport(http.DefaultTransport.(*http.Transport).Clone())}
		}
		coord, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, coord.Close)
		st.url, err = st.listen(wrapHandler(sm, "cluster.handle", coord))
		return st, err
	}
	return nil, fmt.Errorf("unknown topology %d", topo)
}

// stateRoot picks where durable state lives for this run and names the
// filesystem, which is part of the result: the gated durable_stream
// numbers are the store's software path, so they want a memory-backed
// filesystem. Device sync latency on a shared VM is not repeatable
// and is reported only as the durable.disk_append_us_p50 probe.
func stateRoot(scratch string) (dir, fsName string, err error) {
	if shm := "/dev/shm"; writable(shm) {
		return shm, "tmpfs " + shm, nil
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", "", err
	}
	return scratch, "checkout " + scratch, nil
}

func writable(dir string) bool {
	probe, err := os.MkdirTemp(dir, "asim-bench-probe-")
	if err != nil {
		return false
	}
	return os.Remove(probe) == nil
}
