// The metrics endpoint xpserved mounts beside its job API: /metrics in
// the Prometheus text format (scrapeable by a stock Prometheus),
// /metrics.json as one JSON object (curl-and-jq friendly, expvar style),
// /healthz for liveness probes, /buildinfo for identifying exactly which
// build is running, and the stock /debug/pprof/* profiling handlers so a
// long-running server can be profiled in flight.

package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
)

// Handler returns an http.Handler serving the registry: Prometheus text at
// /metrics, JSON at /metrics.json, liveness at /healthz, build identity at
// /buildinfo, Go profiling at /debug/pprof/, and a small index at /.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(buildInfo())
	})
	// The stock net/http/pprof handlers, mounted by hand: this mux never
	// sees http.DefaultServeMux, so the side-effect registrations in that
	// package's init don't reach it.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "xpscalar telemetry\n\n"+
			"/metrics       Prometheus text format\n"+
			"/metrics.json  JSON\n"+
			"/healthz       liveness probe\n"+
			"/buildinfo     module, Go version, VCS revision\n"+
			"/debug/pprof/  Go profiling endpoints\n")
	})
	return mux
}

// buildInfo summarizes what binary is serving: module path and version, Go
// toolchain, and the VCS revision and dirtiness stamped at build time.
func buildInfo() map[string]string {
	out := map[string]string{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["module"] = bi.Main.Path
	if bi.Main.Version != "" {
		out["version"] = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out["vcs_revision"] = s.Value
		case "vcs.time":
			out["vcs_time"] = s.Value
		case "vcs.modified":
			out["vcs_modified"] = s.Value
		}
	}
	return out
}
