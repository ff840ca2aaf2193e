// Package serve is the embedding-as-a-service layer behind
// cmd/starserve: a stdlib HTTP surface over the sessionful
// core.Embedder/Plan API with a bounded pool per dimension, admission
// control with load shedding, and a request-scoped observability
// pipeline — every request runs under an obs.Op whose trace id is
// accepted from and echoed via the X-Star-Trace header, is measured
// into labeled serve.* RED families, and auto-dumps the flight
// recorder on any 5xx.
package serve

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/perm"
)

// Decoder limits: a request may name at most this many explicit faults
// of each kind. The paper's budget (n-3) is far smaller, but
// best-effort mode accepts arbitrarily degraded sets, so the decoder
// bounds the parse work instead of trusting the budget to.
const (
	MaxRequestVertexFaults = 64
	MaxRequestEdgeFaults   = 64
)

// Request is one decoded API call: the dimension, the fault set the
// ring must avoid, the optional repair vertex, and the best-effort
// flag. It is produced by ParseRequest and consumed by the route
// handlers.
type Request struct {
	N          int
	Faults     *faults.Set
	V          perm.Code // repair vertex (/repair only)
	HasV       bool
	BestEffort bool
}

// ParseRequest decodes the query parameters shared by every API route:
//
//	n            star-graph dimension, required, 3..perm.MaxN
//	fv           comma-separated faulty vertices ("213456,312456")
//	fe           comma-separated faulty edges as u-v pairs
//	v            one vertex (the fault /repair folds into the plan)
//	best_effort  "1"/"true": accept fault sets beyond the n-3 budget
//
// Fault budget enforcement is the engine's job (core.ErrBudget); the
// decoder enforces only syntax, dimensional consistency, and the
// MaxRequest*Faults parse bounds.
func ParseRequest(q url.Values) (*Request, error) {
	ns := q.Get("n")
	if ns == "" {
		return nil, fmt.Errorf("serve: missing required parameter n")
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return nil, fmt.Errorf("serve: bad n %q: %w", ns, err)
	}
	if n < 3 || n > perm.MaxN {
		return nil, fmt.Errorf("serve: n=%d out of range [3,%d]", n, perm.MaxN)
	}

	req := &Request{N: n, Faults: faults.NewSet(n)}

	if fv := q.Get("fv"); fv != "" {
		parts := strings.Split(fv, ",")
		if len(parts) > MaxRequestVertexFaults {
			return nil, fmt.Errorf("serve: %d vertex faults exceed the request cap %d",
				len(parts), MaxRequestVertexFaults)
		}
		for _, s := range parts {
			if err := req.Faults.AddVertexString(strings.TrimSpace(s)); err != nil {
				return nil, fmt.Errorf("serve: fv: %w", err)
			}
		}
	}
	if fe := q.Get("fe"); fe != "" {
		parts := strings.Split(fe, ",")
		if len(parts) > MaxRequestEdgeFaults {
			return nil, fmt.Errorf("serve: %d edge faults exceed the request cap %d",
				len(parts), MaxRequestEdgeFaults)
		}
		for _, s := range parts {
			if err := req.Faults.AddEdgeString(strings.TrimSpace(s)); err != nil {
				return nil, fmt.Errorf("serve: fe: %w", err)
			}
		}
	}
	if vs := q.Get("v"); vs != "" {
		v, err := perm.ParseCode(vs, n)
		if err != nil {
			return nil, fmt.Errorf("serve: v: %w", err)
		}
		req.V, req.HasV = v, true
	}
	switch be := q.Get("best_effort"); be {
	case "", "0", "false":
	case "1", "true":
		req.BestEffort = true
	default:
		return nil, fmt.Errorf("serve: bad best_effort %q (want 1/true/0/false)", be)
	}
	return req, nil
}
