package obs

import "testing"

func TestMakeLabels(t *testing.T) {
	cases := []struct {
		kv   []string
		want string
	}{
		{nil, ""},
		{[]string{"n"}, ""}, // trailing odd arg dropped
		{[]string{"n", "6"}, `n="6"`},
		{[]string{"outcome", "splices", "n", "6"}, `n="6",outcome="splices"`},
		{[]string{"n", "6", "n", "7"}, `n="7"`}, // later duplicate wins
		{[]string{"a", "1", "b", "2", "c"}, `a="1",b="2"`},
	}
	for _, c := range cases {
		if got := MakeLabels(c.kv...).String(); got != c.want {
			t.Errorf("MakeLabels(%v) = %q, want %q", c.kv, got, c.want)
		}
	}
}

func TestValidLabelKey(t *testing.T) {
	for _, ok := range []string{"n", "machine", "error_budget", "x9_y"} {
		if !ValidLabelKey(ok) {
			t.Errorf("ValidLabelKey(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "N", "9n", "_n", "ma-chine", "core.n", "münze"} {
		if ValidLabelKey(bad) {
			t.Errorf("ValidLabelKey(%q) = true", bad)
		}
	}
}

func TestLabelsMergeGet(t *testing.T) {
	a := MakeLabels("machine", "m0", "n", "6")
	b := MakeLabels("n", "7", "outcome", "splices")
	m := a.Merge(b)
	if got := m.String(); got != `machine="m0",n="7",outcome="splices"` {
		t.Errorf("Merge = %q", got)
	}
	// Neither input mutated.
	if a.String() != `machine="m0",n="6"` || b.String() != `n="7",outcome="splices"` {
		t.Errorf("Merge mutated inputs: %q / %q", a, b)
	}
	if v, ok := m.Get("outcome"); !ok || v != "splices" {
		t.Errorf("Get(outcome) = %q, %v", v, ok)
	}
	if _, ok := m.Get("missing"); ok {
		t.Error("Get(missing) = present")
	}
}

// TestEncodeParseNameRoundTrip drives EncodeName/ParseName through
// plain names, multi-label sets and every escape the wire form allows.
func TestEncodeParseNameRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		ls   Labels
	}{
		{"sim.embeds", nil},
		{"core.embed.completed", MakeLabels("n", "6", "mode", "guaranteed")},
		{"sim.embeds", MakeLabels("machine", "m0")},
		{"x", MakeLabels("k", `quote " slash \ newline`+"\n")},
	}
	for _, c := range cases {
		enc := EncodeName(c.name, c.ls)
		name, ls, err := ParseName(enc)
		if err != nil {
			t.Errorf("ParseName(%q): %v", enc, err)
			continue
		}
		if name != c.name || ls.String() != c.ls.String() {
			t.Errorf("round trip %q -> %q{%s}, want %q{%s}", enc, name, ls, c.name, c.ls)
		}
	}
}

func TestParseNameMalformed(t *testing.T) {
	for _, bad := range []string{
		"m{",            // unterminated clause
		`m{k="v"`,       // missing closing brace
		`m{k}`,          // no = "
		`m{k="v}`,       // unterminated value
		`m{k="v"x="y"}`, // missing separator
		`m{k="v",,}`,    // malformed pair
	} {
		if _, _, err := ParseName(bad); err == nil {
			t.Errorf("ParseName(%q) accepted", bad)
		}
	}
	// Bare names and empty clauses are legal.
	if name, ls, err := ParseName("m{}"); err != nil || name != "m" || ls != nil {
		t.Errorf("ParseName(m{}) = %q, %v, %v", name, ls, err)
	}
}
