package analysis

import (
	"bufio"
	"fmt"
	"go/token"
	"io"
	"os"
	"strings"
)

// Config is the driver-level configuration. The format is
// line-oriented:
//
//	# comment
//	allow <analyzer> <symbol>
//
// An allow entry drops findings attributed to the symbol without a
// per-site suppression comment; <analyzer> may be "all". <symbol> is
// the qualified form a diagnostic reports (e.g. "fmt.Fprintf" or
// "repro/internal/faults.(*Set).AddVertex"); a trailing '*' matches
// any suffix. A hot path is marked in its source only, by a
// //starlint:hotpath doc directive.
//
// Every entry tracks whether it did anything during a run, so the
// driver can report entries that have gone stale (see Analyze).
type Config struct {
	name   string
	allows []*configEntry
}

// configEntry is one config line.
type configEntry struct {
	line     int
	analyzer string
	symbol   string
	used     bool
}

// ParseConfig reads the config format from r. name is used in error
// messages and stale-entry positions.
func ParseConfig(r io.Reader, name string) (*Config, error) {
	cfg := &Config{name: name}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 3 && fields[0] == "allow":
			analyzer, symbol := fields[1], fields[2]
			if analyzer != "all" && ByName(analyzer) == nil {
				return nil, fmt.Errorf("%s:%d: unknown analyzer %q", name, lineNo, analyzer)
			}
			cfg.allows = append(cfg.allows, &configEntry{line: lineNo, analyzer: analyzer, symbol: symbol})
		default:
			return nil, fmt.Errorf("%s:%d: want \"allow <analyzer> <symbol>\", got %q", name, lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// LoadConfig reads the config from a file.
func LoadConfig(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseConfig(f, path)
}

// Allowed reports whether a diagnostic from the named analyzer,
// attributed to symbol, is allowlisted; a match marks the entry used.
// A nil Config allows nothing.
func (c *Config) Allowed(analyzer, symbol string) bool {
	if c == nil || symbol == "" {
		return false
	}
	for _, e := range c.allows {
		if e.analyzer != analyzer && e.analyzer != "all" {
			continue
		}
		if matchSymbol(e.symbol, symbol) {
			e.used = true
			return true
		}
	}
	return false
}

// resetUsage clears per-run usage marks so one Config can serve
// repeated Analyze calls.
func (c *Config) resetUsage() {
	if c == nil {
		return
	}
	for _, e := range c.allows {
		e.used = false
	}
}

// stale returns the allow entries that suppressed no finding this run
// (judged only when their analyzer ran; "all" entries only under the
// full suite).
func (c *Config) stale(runset map[string]bool) []Stale {
	if c == nil {
		return nil
	}
	fullSuite := len(runset) == len(All())
	var out []Stale
	for _, e := range c.allows {
		if e.used {
			continue
		}
		if e.analyzer == "all" && !fullSuite {
			continue
		}
		if e.analyzer != "all" && !runset[e.analyzer] {
			continue
		}
		out = append(out, Stale{
			Pos:     token.Position{Filename: c.name, Line: e.line},
			Message: fmt.Sprintf("stale allow entry: no %s finding is attributed to %q", e.analyzer, e.symbol),
		})
	}
	return out
}

// matchSymbol matches pattern against symbol; a trailing '*' matches
// any suffix.
func matchSymbol(pattern, symbol string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(symbol, prefix)
	}
	return pattern == symbol
}
