package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
)

// process is the per-process aggregate registry (see Process).
var (
	processOnce sync.Once
	process     *Registry
)

// Process returns the per-process aggregate registry. Components that
// create per-link registries as children of Process (the metrics
// runner and the public colorbars API do) automatically roll their
// counters and span latencies up here, which is what the -telemetry-addr
// debug endpoint of the cmd tools exposes.
func Process() *Registry {
	processOnce.Do(func() { process = NewRegistry() })
	return process
}

// debugHandlers is the process-wide set of extra debug endpoints
// served by every ServeDebug listener. Lookup happens per request, so
// handlers registered after the server starts (e.g. linkstats
// publishing /debug/link once the first collector exists) are served
// without restarting.
var (
	debugMu       sync.RWMutex
	debugHandlers = map[string]http.Handler{}
)

// RegisterDebugHandler mounts h at path (e.g. "/debug/link") on every
// current and future ServeDebug server. Registering the same path
// again replaces the handler.
func RegisterDebugHandler(path string, h http.Handler) {
	debugMu.Lock()
	defer debugMu.Unlock()
	debugHandlers[path] = h
}

// lookupDebugHandler resolves one registered extra endpoint.
func lookupDebugHandler(path string) (http.Handler, bool) {
	debugMu.RLock()
	defer debugMu.RUnlock()
	h, ok := debugHandlers[path]
	return h, ok
}

// publishExpvar publishes the registry's snapshot as the named expvar
// variable (visible at /debug/vars). Publishing the same name twice
// is a no-op, so callers need not coordinate.
func publishExpvar(name string, r *Registry) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// ServeDebug starts an HTTP server on addr (e.g. ":8080", ":0" for an
// ephemeral port) exposing expvar at /debug/vars, the pprof
// profiling endpoints at /debug/pprof/, and every endpoint added via
// RegisterDebugHandler (linkstats mounts /debug/link there). It
// returns the bound listener (whose Addr reports the actual port);
// the server runs until the listener is closed or the process exits.
func ServeDebug(addr string) (net.Listener, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if h, ok := lookupDebugHandler(r.URL.Path); ok {
			h.ServeHTTP(w, r)
			return
		}
		http.NotFound(w, r)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: cannot serve debug endpoints on %q (is the port already in use by another tool?): %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(l)
	return l, nil
}

// ServeTool sets up a command-line tool's process telemetry from its
// -telemetry-addr and -trace flags; an empty string leaves that part
// off. A trace path gets a JSONL sink on the process registry, which
// sees every span and counter of the run (component registries are its
// children). An address publishes the process registry as the
// "colorbars" expvar and serves the debug endpoints there (ServeDebug).
// The tool defers the returned stop, which closes the listener, detaches
// and closes the trace, and returns the trace's first write or close
// error for the tool to report like any other.
func ServeTool(addr, tracePath string) (stop func() error, err error) {
	var tf *os.File
	var sink *JSONLSink
	if tracePath != "" {
		if tf, err = os.Create(tracePath); err != nil {
			return nil, err
		}
		sink = NewJSONLSink(tf)
		Process().SetSink(sink)
	}
	closeTrace := func() error {
		if tf == nil {
			return nil
		}
		Process().SetSink(nil)
		err := sink.Err()
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		return err
	}
	var l net.Listener
	if addr != "" {
		publishExpvar("colorbars", Process())
		if l, err = ServeDebug(addr); err != nil {
			closeTrace() // the listen error is the one to report
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "telemetry: expvar and pprof on http://%s/debug/\n", l.Addr())
	}
	return func() error {
		if l != nil {
			l.Close()
		}
		if err := closeTrace(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if tf != nil {
			fmt.Fprintf(os.Stderr, "trace written to %s\n", tracePath)
		}
		return nil
	}, nil
}
