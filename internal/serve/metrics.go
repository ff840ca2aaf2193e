package serve

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/perm"
)

// The instrumented API routes, indexed by the constants below. The
// health/metrics endpoints are deliberately absent: scraping /metrics
// must not move the request curves it reports.
const (
	routeEmbed = iota
	routeRepair
	routeRing
	routeChaos
	numRoutes
)

// routeNames maps route indexes to their label values.
var routeNames = [numRoutes]string{"embed", "repair", "ring", "chaos"}

// The response codes the server emits, indexed for the pre-resolved
// handle tables. Anything else (there is nothing else today) falls
// into the 500 slot rather than minting an unbounded label value.
var redCodes = [...]int{200, 400, 404, 429, 500}

// codeIndex maps a status code onto its redCodes slot.
func codeIndex(code int) int {
	for i, c := range redCodes {
		if c == code {
			return i
		}
	}
	return len(redCodes) - 1
}

// red holds the server's RED metric families with every handle
// resolved at construction, so the per-request path is pure array
// indexing plus atomic updates — no map lookups, no label encoding,
// no allocation. The hotalloc analyzer enforces that on observe via
// its //starlint:hotpath directive.
//
// Families (see the README glossary):
//
//	serve.requests{route,code,n}  counter   every completed request
//	serve.errors{route,code}      counter   4xx/5xx responses
//	serve.good{route}             counter   non-error responses
//	serve.latency{route}          histogram request latency + exemplars
type red struct {
	// requests is indexed [route][code][n]; n slots outside the served
	// range stay nil (a nil Counter is a no-op) and such requests are
	// recorded under the n=0 slot by Server.nIndex.
	requests [numRoutes][len(redCodes)][perm.MaxN + 1]*obs.Counter
	errors   [numRoutes][len(redCodes)]*obs.Counter
	good     [numRoutes]*obs.Counter
	latency  [numRoutes]*obs.Histogram
}

// newRED resolves every handle the middleware will touch for
// dimensions minN..maxN (plus the n=0 slot that absorbs requests shed
// or rejected before a dimension is known).
func newRED(reg *obs.Registry, minN, maxN int) *red {
	rv := reg.CounterVec("serve.requests", "route", "code", "n")
	ev := reg.CounterVec("serve.errors", "route", "code")
	gv := reg.CounterVec("serve.good", "route")
	lv := reg.HistogramVec("serve.latency", "route")

	m := &red{}
	for ri, route := range routeNames {
		m.good[ri] = gv.With("route", route)
		m.latency[ri] = lv.With("route", route)
		for ci, code := range redCodes {
			cs := strconv.Itoa(code)
			m.errors[ri][ci] = ev.With("route", route, "code", cs)
			m.requests[ri][ci][0] = rv.With("route", route, "code", cs, "n", "0")
			for n := minN; n <= maxN; n++ {
				m.requests[ri][ci][n] = rv.With("route", route, "code", cs, "n", strconv.Itoa(n))
			}
		}
	}
	return m
}

// observe is the middleware's metric fast path: one call per request,
// after the response is written. ri/ci/ni are pre-clamped indexes into
// the handle tables (routeIndex, codeIndex, Server.nIndex); code is
// the actual response status; trace rides into the latency exemplar
// reservoir so a slow quantile links to its request trace. Every
// admitted and shed request funnels through it, so it must not
// allocate — request throughput would otherwise pay GC for its own
// metrics — and the hotalloc analyzer keeps it so.
//
//starlint:hotpath
func (m *red) observe(ri, ci, ni, code int, d time.Duration, trace obs.TraceID) {
	m.requests[ri][ci][ni].Inc()
	if code >= 400 {
		m.errors[ri][ci].Inc()
	} else {
		m.good[ri].Inc()
	}
	m.latency[ri].ObserveTrace(d, trace)
}
