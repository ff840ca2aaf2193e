// Package repro is the public facade of a full reproduction of
//
//	Sun-Yuan Hsieh, Gen-Huey Chen, Chin-Wen Ho:
//	"Embed Longest Rings onto Star Graphs with Vertex Faults",
//	International Conference on Parallel Processing (ICPP), 1998.
//
// The paper proves that an n-dimensional star graph S_n with
// |Fv| <= n-3 faulty vertices contains a fault-free ring of length
// n! - 2|Fv|, improving the previous guarantee of n! - 4|Fv| (Tseng,
// Chang, Sheu) and matching the bipartite upper bound, hence worst-case
// optimal. This package exposes the executable form of that theorem —
// a verified ring-embedding constructor — together with the star-graph
// substrate, the fault model and the two prior algorithms it is
// evaluated against.
//
// # Quick start
//
//	fs := repro.NewFaultSet(7)
//	fs.AddVertexString("2134567")
//	plan, err := repro.EmbedRing(7, fs, repro.Options{})
//	// plan.RingLen() == 7! - 2 = 5038; plan.Ring() copies the cycle out.
//
// An embedding is a Plan, which holds its ring in skeleton form — the
// routed block structure of the paper's construction, O(#blocks)
// memory — rather than as n! vertices. Plan.Cursor streams the ring
// vertex by vertex (n >= 10 is 3.6M vertices), Plan.Ring copies it into
// a slice, VerifyRingStream checks it without materializing, and
// SaveRingStream/LoadRingStream persist it in a chunked format. A
// longest s-t path from EmbedLongestPath is a Plan too, built, held
// and verified the same way. See README.md "Scaling past memory".
//
// For online use — faults arriving while the ring is in service — build
// an engine once with NewEmbedder and keep the Plans it returns:
// Plan.Repair absorbs most new faults by re-routing one 24-vertex block
// and splicing it in place, orders of magnitude cheaper than a fresh
// embedding.
//
// The heavy lifting lives in the internal packages (documented in
// DESIGN.md): internal/core implements Lemmas 2, 3, 7 and Theorem 1;
// internal/superring the supervertex rings; internal/pathsearch the
// exact S4 block searches standing in for Lemmas 4-6; internal/baseline
// the comparison algorithms; internal/check the independent verifier.
package repro

import (
	"io"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perm"
	"repro/internal/ringio"
	"repro/internal/star"
)

// Perm is a permutation of 1..n, the friendly form of a star-graph
// vertex. See ParseVertex and Vertex.String.
type Perm = perm.Perm

// Vertex is a star-graph vertex packed into a machine word.
type Vertex = perm.Code

// FaultSet collects faulty vertices and edges of one S_n.
type FaultSet = faults.Set

// Options tunes an embedding; the zero value runs the strict paper
// algorithm. Its Streaming and Workers fields are deprecated and
// ignored: every embedding is held in skeleton form.
type Options = core.Config

// Embedding describes a verified ring embedding — length, guarantee,
// fault counts and block decomposition (see core.Result); obtain it
// with Plan.Result.
type Embedding = core.Result

// Graph is the n-dimensional star graph substrate.
type Graph = star.Graph

// NewGraph returns the n-dimensional star graph S_n.
func NewGraph(n int) Graph { return star.New(n) }

// NewFaultSet returns an empty fault set for S_n.
func NewFaultSet(n int) *FaultSet { return faults.NewSet(n) }

// ParseVertex reads a vertex from the paper's permutation notation,
// e.g. "21345" in S_5 (digits 1-9, then letters a-g for n > 9).
func ParseVertex(s string) (Vertex, error) {
	p, err := perm.Parse(s)
	if err != nil {
		return 0, err
	}
	return perm.Pack(p), nil
}

// FormatVertex renders a vertex of S_n in permutation notation.
func FormatVertex(v Vertex, n int) string { return v.StringN(n) }

// EmbedRing constructs a healthy ring in S_n avoiding the given faults,
// of length at least n! - 2|Fv| whenever |Fv| + |Fe| <= n - 3 (the
// paper's Theorem 1 plus its concluding-remark extensions). The ring
// has been re-verified against the fault set before the Plan holding
// it is returned.
func EmbedRing(n int, fs *FaultSet, opts Options) (*Plan, error) {
	return core.Embed(n, fs, opts)
}

// Embedder is a reusable embedding engine for one S_n: it owns the
// graph and the configuration so repeated embeddings and online repairs
// share their setup cost (see core.Embedder).
type Embedder = core.Embedder

// Plan is a live embedding produced by EmbedRing or an Embedder. It
// holds the ring as the construction skeleton, which Plan.Cursor and
// Plan.Ring replay, and which lets Plan.Repair absorb a new vertex
// fault by re-routing a single 24-vertex block and splicing it in place
// instead of re-running the whole pipeline.
type Plan = core.Plan

// RepairOutcome classifies what Plan.Repair did: RepairNoop,
// RepairAvoided (off-ring fault), RepairSplice (fast path) or
// RepairRebuild (full re-embedding).
type RepairOutcome = core.RepairOutcome

// RepairReport describes one Plan.Repair call (see core.RepairReport).
type RepairReport = core.RepairReport

// Repair outcomes.
const (
	RepairNoop    = core.RepairNoop    // already-known fault; nothing to do
	RepairAvoided = core.RepairAvoided // fault off the ring; ring unchanged
	RepairSplice  = core.RepairSplice  // one block re-routed and spliced
	RepairRebuild = core.RepairRebuild // full re-embedding
)

// NewEmbedder returns a reusable embedding engine for S_n. Use it, via
// Embedder.Embed and Plan.Repair, when faults arrive incrementally;
// EmbedRing remains the one-shot entry point.
func NewEmbedder(n int, opts Options) (*Embedder, error) {
	return core.NewEmbedder(n, opts)
}

// RingCursor streams a Plan's ring one vertex at a time at O(one
// block) working memory (see core.RingCursor); obtain one with
// Plan.Cursor. After a Repair, live cursors fail with ErrStaleCursor
// at their next block boundary — take a fresh cursor to resume.
type RingCursor = core.RingCursor

// ErrStaleCursor reports that the plan was repaired or rebuilt while a
// cursor was iterating it.
var ErrStaleCursor = core.ErrStaleCursor

// EmbedLongestPath constructs a longest healthy path between two
// healthy vertices s and t: at least n! - 2|Fv| vertices when s and t
// lie in different partite sets, n! - 2|Fv| - 1 otherwise (an extension
// beyond the paper; see DESIGN.md §4b), as a Plan whose Cursor streams
// it from s to t. A path plan cannot be repaired.
//
// At S_5 some inputs inside the fault budget leave no first partition
// position that splits s from t and separates the faults: strict mode
// refuses them with an error that advises best effort, and with
// opts.BestEffort the path comes back verified but unguaranteed
// (Result.Guaranteed false), possibly shorter than the bound.
func EmbedLongestPath(n int, fs *FaultSet, s, t Vertex, opts Options) (*Plan, error) {
	return core.EmbedPath(n, fs, s, t, opts)
}

// EmbedRingTseng runs the prior algorithm of Tseng, Chang and Sheu on
// the same substrate: guaranteed length n! - 4|Fv|.
func EmbedRingTseng(n int, fs *FaultSet, opts Options) (*baseline.TsengResult, error) {
	return baseline.Tseng(n, fs, opts)
}

// EmbedRingClustered runs the clustered-star algorithm of Latifi and
// Bagherzadeh: guaranteed length n! - m! where m is the minimal order of
// an embedded substar containing every fault.
func EmbedRingClustered(n int, fs *FaultSet, opts Options) (*baseline.LatifiResult, error) {
	return baseline.Latifi(n, fs, opts)
}

// VerifyRing independently checks that cycle is a healthy simple cycle
// of S_n of length at least minLen under the given faults.
func VerifyRing(g Graph, cycle []Vertex, fs *FaultSet, minLen int) error {
	return check.Ring(g, cycle, fs, minLen)
}

// VerifyRingStream is VerifyRing for rings too large to materialize:
// next yields consecutive cycle vertices (false at the end — the shape
// RingCursor.Next has). VerifyRing runs this same verifier over its
// slice. Returns the number of vertices checked.
func VerifyRingStream(g Graph, next func() (Vertex, bool), fs *FaultSet, minLen int) (int, error) {
	return check.RingStream(g, next, fs, minLen)
}

// RingUpperBound returns the bipartite ceiling on any healthy cycle
// length for the given fault set; with all faults in one partite set it
// equals the paper's n! - 2|Fv|, which is why Theorem 1 is optimal.
func RingUpperBound(n int, fs *FaultSet) int {
	return check.BipartiteUpperBound(n, fs)
}

// SaveRing writes an embedded ring in the compact binary format of
// internal/ringio (SRS2: one star-step byte per vertex, a varint rank
// for the first), suitable for handing to a scheduler and re-verifying
// on load.
func SaveRing(w io.Writer, n int, ring []Vertex) error {
	return ringio.WriteBinary(w, n, ring)
}

// LoadRing reads a ring written by SaveRing or SaveRingStream, or a
// file saved in the older rank formats, re-validating every vertex. Use
// VerifyRing afterwards to re-check adjacency and healthiness against a
// fault set.
func LoadRing(r io.Reader) (n int, ring []Vertex, err error) {
	return ringio.ReadBinary(r)
}

// SaveRingStream writes a ring delivered by an iterator (typically
// Plan.Cursor().Next) in SaveRing's format, without ever holding the
// cycle: length must declare the exact vertex count up front
// (Plan.RingLen knows it from the skeleton).
func SaveRingStream(w io.Writer, n int, length int, next func() (Vertex, bool)) error {
	return ringio.WriteBinaryStream(w, n, length, next)
}

// RingReader decodes a saved ring one vertex at a time (see
// ringio.StreamReader): Next until false, then Err for the verdict.
type RingReader = ringio.StreamReader

// LoadRingStream opens a constant-memory decoder for a ring written by
// SaveRingStream or SaveRing, or saved in the older rank formats. Feed
// RingReader.Next to VerifyRingStream to re-verify without
// materializing.
func LoadRingStream(r io.Reader) (*RingReader, error) {
	return ringio.ReadBinaryStream(r)
}

// Factorial returns n!, the number of vertices of S_n.
func Factorial(n int) int { return perm.Factorial(n) }

// MaxFaults returns the paper's fault budget n - 3 for S_n.
func MaxFaults(n int) int { return faults.MaxTolerated(n) }
