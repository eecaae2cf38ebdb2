package service

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// TestServeListenFailure: a daemon whose address is taken gets the
// listener's error back instead of an exit, so its deferred cleanup
// still runs.
func TestServeListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var f FrontFlags
	if err := f.serve(context.Background(), ln.Addr().String(), http.NotFoundHandler(), telemetry.NewTracer(1), quietLog); err == nil {
		t.Fatal("serving on a taken address returned no error")
	}
}

// TestServeDrains: once its context ends the server drains, the
// retained spans land in TraceOut, and serve returns nil.
func TestServeDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	f := FrontFlags{TraceOut: filepath.Join(t.TempDir(), "trace.json")}
	tr := telemetry.NewTracer(4)
	tr.Record(telemetry.Span{Name: "drain-probe"})
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() { done <- f.serve(ctx, addr, http.NotFoundHandler(), tr, quietLog) }()

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; ; i++ {
		resp, err := client.Get("http://" + addr + "/")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve returned before answering: %v", err)
		default:
		}
		if i == 500 {
			t.Fatalf("server never answered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not return after its context ended")
	}
	trace, err := os.ReadFile(f.TraceOut)
	if err != nil || !strings.Contains(string(trace), "drain-probe") {
		t.Errorf("trace export: %v, %s", err, trace)
	}
}
