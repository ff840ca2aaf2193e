package obs

import (
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// readHeaderTimeout bounds how long a debug-server client may take to
// send its request headers, so a stalled connection cannot pin a
// goroutine and a file descriptor forever.
const readHeaderTimeout = 10 * time.Second

// PublishExpvar exposes the registry's live snapshot as the named
// expvar, for the /debug/vars endpoint. expvar names are process-global
// and permanent, so publish once per name; a name already taken is left
// untouched (first writer wins).
func (r *Registry) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() interface{} { return r.Snapshot() }))
}

// DebugServer is a running debug HTTP endpoint started by
// StartDebugServer. Close releases its port, so sequential runs (and
// tests) can reuse an address; additional handlers — the OpenMetrics
// /metrics exposition from internal/obs/export, for one — attach
// through Handle.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
	mux *http.ServeMux
}

// StartDebugServer serves /debug/vars (expvar, including registries
// published via PublishExpvar) and /debug/pprof/* on its own mux at
// addr ("host:port"; port 0 picks a free one). The server runs until
// Close — CLIs call this behind a -debug-addr flag for profiling and
// scraping long runs.
func StartDebugServer(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	s := &DebugServer{ln: ln, srv: srv, mux: mux}
	//starlint:ignore goroleak Serve returns when Close closes the listener; the join is the accept loop's own error path
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound "host:port" address.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Handle registers an additional handler on the server's mux
// (http.ServeMux registration is safe while serving).
func (s *DebugServer) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// Close stops the server and releases its listener. In-flight requests
// are aborted; the address is immediately reusable.
func (s *DebugServer) Close() error {
	err := s.srv.Close()
	// srv.Close only closes listeners Serve has already registered;
	// closing ours directly makes Close safe however early it races the
	// Serve goroutine.
	if cerr := s.ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) && err == nil {
		err = cerr
	}
	return err
}
