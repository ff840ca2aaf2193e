package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Label is one key/value dimension of a metric. Keys follow the
// lower_snake convention ([a-z][a-z0-9_]*, no dots) enforced statically
// by the starlint metricname analyzer and dynamically by ValidLabelKey;
// values are free-form strings, escaped on export.
type Label struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Labels is a label set, kept sorted by key with unique keys. The zero
// value (nil) is the empty set.
type Labels []Label

// ValidLabelKey reports whether k follows the label-key convention:
// lower_snake, starting with a letter, no dots.
func ValidLabelKey(k string) bool {
	if k == "" || k[0] < 'a' || k[0] > 'z' {
		return false
	}
	for i := 1; i < len(k); i++ {
		c := k[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// MakeLabels builds a sorted label set from alternating key/value
// pairs. Later duplicates of a key win; a trailing odd argument is
// dropped. Key validity is a static property of call sites (the
// metricname analyzer checks them), so MakeLabels does not reject bad
// keys — the OpenMetrics validator catches any that reach an export.
func MakeLabels(kv ...string) Labels {
	if len(kv) < 2 {
		return nil
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		ls = setLabel(ls, kv[i], kv[i+1])
	}
	return ls
}

// setLabel inserts or replaces one key, keeping ls sorted.
func setLabel(ls Labels, k, v string) Labels {
	i := sort.Search(len(ls), func(i int) bool { return ls[i].Key >= k })
	if i < len(ls) && ls[i].Key == k {
		ls[i].Value = v
		return ls
	}
	ls = append(ls, Label{})
	copy(ls[i+1:], ls[i:])
	ls[i] = Label{Key: k, Value: v}
	return ls
}

// Merge returns the union of ls and other (other wins on shared keys)
// as a fresh sorted set; neither input is mutated.
func (ls Labels) Merge(other Labels) Labels {
	if len(other) == 0 {
		return append(Labels(nil), ls...)
	}
	out := append(Labels(nil), ls...)
	for _, l := range other {
		out = setLabel(out, l.Key, l.Value)
	}
	return out
}

// Get returns the value for key and whether it is present.
func (ls Labels) Get(key string) (string, bool) {
	i := sort.Search(len(ls), func(i int) bool { return ls[i].Key >= key })
	if i < len(ls) && ls[i].Key == key {
		return ls[i].Value, true
	}
	return "", false
}

// String renders the set in its canonical wire form —
// k="v",k2="v2" with OpenMetrics value escaping — used both as the
// family slot map key and inside encoded metric names.
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies OpenMetrics label-value escaping: backslash,
// double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// EncodeName renders a metric identity as name{labels}, or the bare
// name for an empty set. Snapshot keys and the series names plain
// Visitors receive are in this form.
func EncodeName(name string, ls Labels) string {
	if len(ls) == 0 {
		return name
	}
	return name + "{" + ls.String() + "}"
}

// ParseName inverts EncodeName: it splits an encoded metric identity
// into the base name and its label set. Bare names return a nil set.
func ParseName(encoded string) (name string, ls Labels, err error) {
	open := strings.IndexByte(encoded, '{')
	if open < 0 {
		return encoded, nil, nil
	}
	if !strings.HasSuffix(encoded, "}") {
		return "", nil, fmt.Errorf("obs: malformed metric identity %q", encoded)
	}
	name = encoded[:open]
	body := encoded[open+1 : len(encoded)-1]
	if body == "" {
		return name, nil, nil
	}
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			return "", nil, fmt.Errorf("obs: malformed label set in %q", encoded)
		}
		key := body[:eq]
		rest := body[eq+2:]
		// Scan for the closing quote, honoring backslash escapes.
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return "", nil, fmt.Errorf("obs: unterminated label value in %q", encoded)
		}
		ls = setLabel(ls, key, val.String())
		body = rest[i+1:]
		if body == "" {
			break
		}
		if body[0] != ',' {
			return "", nil, fmt.Errorf("obs: malformed label separator in %q", encoded)
		}
		body = body[1:]
	}
	return name, ls, nil
}
