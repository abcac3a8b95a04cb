package serve

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4), hand-rolled: the container
// bakes in no client library, and the daemon's surface is small enough
// that a writer plus a strict linter (used by tests and CI against the
// live endpoint) is less machinery than a dependency.

// promWriter accumulates one exposition. Families must be written in one
// block each (openFamily, then its samples) — the grouping the format
// requires and the linter enforces.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// family emits the HELP/TYPE header for one metric family.
func (p *promWriter) family(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// sample emits one sample line. labels come as name/value pairs and are
// emitted in the given order; values are escaped per the exposition rules.
func (p *promWriter) sample(name string, labels [][2]string, value float64) {
	if len(labels) == 0 {
		p.printf("%s %s\n", name, formatValue(value))
		return
	}
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l[0], escapeLabel(l[1]))
	}
	p.printf("%s{%s} %s\n", name, sb.String(), formatValue(value))
}

// counter is shorthand for a single-sample counter family.
func (p *promWriter) counter(name, help string, value float64) {
	p.family(name, help, "counter")
	p.sample(name, nil, value)
}

// gauge is shorthand for a single-sample gauge family.
func (p *promWriter) gauge(name, help string, value float64) {
	p.family(name, help, "gauge")
	p.sample(name, nil, value)
}

// formatValue renders a float the compact way Prometheus expects; counters
// here are all integral, so most values render without an exponent.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value for %q quoting: %q already handles
// quote and backslash escaping plus control characters, so the value is
// passed through unchanged — the indirection exists to keep the escaping
// decision in one named place.
func escapeLabel(s string) string { return s }

// sortedLabelKeys returns map keys in deterministic order, so two scrapes
// of identical state emit identical bytes — the project-wide determinism
// stance extends to the exposition.
func sortedLabelKeys(m map[string][2]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var (
	promMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// LintDiag is one exposition problem: the 1-based line it was found on
// (0 for whole-stream problems, like an exposition with no samples) and a
// human-readable message.
type LintDiag struct {
	Line int
	Msg  string
}

func (d LintDiag) String() string {
	if d.Line == 0 {
		return "metrics: " + d.Msg
	}
	return fmt.Sprintf("metrics line %d: %s", d.Line, d.Msg)
}

// LintExposition validates Prometheus text exposition format: HELP/TYPE
// comment syntax, one TYPE per family declared before its samples, legal
// metric and label names, quoted-and-escaped label values, parseable
// sample values, no duplicate (name, labelset) samples, families not
// interleaved, and a trailing newline. It is the exposition gate CI runs
// against a live daemon's /metrics (via cmd/promlint) and tests run
// against recorded responses — strict enough that anything it passes, a
// real Prometheus scraper ingests.
//
// It reports the first problem only; LintExpositionAll collects them all.
func LintExposition(r io.Reader) error {
	diags, err := LintExpositionAll(r)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if len(diags) > 0 {
		return fmt.Errorf("%s", diags[0])
	}
	return nil
}

// LintExpositionAll runs the same checks as LintExposition but keeps going
// after a finding, returning every diagnostic in line order. A line with a
// problem is skipped for further per-line checks but does not stop the
// scan, so cmd/promlint can show the whole damage at once. The error return is for stream-level failures (a line the
// scanner cannot buffer), not lint findings.
func LintExpositionAll(r io.Reader) ([]LintDiag, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	typed := make(map[string]string) // family -> declared type
	closed := make(map[string]bool)  // families whose block has ended
	seen := make(map[string]bool)    // name{labels} duplicates
	current := ""                    // family block being read
	sawSample := false
	lineNo := 0
	var diags []LintDiag
	fail := func(format string, args ...any) {
		diags = append(diags, LintDiag{Line: lineNo, Msg: fmt.Sprintf(format, args...)})
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment: legal, ignored
			}
			name := fields[2]
			if !promMetricName.MatchString(name) {
				fail("bad metric name %q in %s comment", name, fields[1])
				continue
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					fail("TYPE comment for %s carries no type", name)
					continue
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					fail("unknown TYPE %q for %s", fields[3], name)
					continue
				}
				if _, dup := typed[name]; dup {
					fail("second TYPE declaration for %s", name)
					continue
				}
				if closed[name] {
					fail("family %s reopened after other samples (interleaved families)", name)
					continue
				}
				typed[name] = fields[3]
			}
			if fam := familyOf(name); fam != current {
				if closed[fam] {
					fail("family %s reopened after other samples (interleaved families)", fam)
					continue
				}
				if current != "" {
					closed[current] = true
				}
				current = fam
			}
			continue
		}
		name, labels, valueField, err := splitSample(line)
		if err != nil {
			fail("%v", err)
			continue
		}
		if !promMetricName.MatchString(name) {
			fail("bad metric name %q", name)
			continue
		}
		sawSample = true
		fam := familyOf(name)
		if _, ok := typed[fam]; !ok {
			// Bare untyped samples are legal in the format at large, but
			// this daemon always declares types; a sample with no TYPE is
			// what a half-written handler would emit.
			fail("sample %s appears before its TYPE declaration", name)
			continue
		}
		if fam != current {
			if closed[fam] {
				fail("family %s reopened after other samples (interleaved families)", fam)
				continue
			}
			if current != "" {
				closed[current] = true
			}
			current = fam
		}
		badLabel := false
		for _, l := range labels {
			if !promLabelName.MatchString(l[0]) {
				fail("bad label name %q on %s", l[0], name)
				badLabel = true
			}
		}
		if badLabel {
			continue
		}
		sig := name + "{" + joinLabels(labels) + "}"
		if seen[sig] {
			fail("duplicate sample %s", sig)
			continue
		}
		seen[sig] = true
		if err := checkValue(valueField); err != nil {
			fail("sample %s: %v", name, err)
		}
	}
	if err := sc.Err(); err != nil {
		return diags, err
	}
	if !sawSample {
		diags = append(diags, LintDiag{Msg: "exposition carries no samples"})
	}
	return diags, nil
}

// familyOf strips the histogram/summary sample suffixes so _bucket/_sum/
// _count samples group under their declared family.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		name = strings.TrimSuffix(name, suf)
	}
	return name
}

// splitSample parses one sample line into name, labels, and the value
// field (timestamps, legal per the format, are accepted and ignored).
func splitSample(line string) (name string, labels [][2]string, value string, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", nil, "", fmt.Errorf("sample %q has no value", line)
	} else if rest[i] == '{' {
		name, rest = rest[:i], rest[i+1:]
		for {
			rest = strings.TrimLeft(rest, ",")
			if strings.HasPrefix(rest, "}") {
				rest = strings.TrimPrefix(rest, "}")
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return "", nil, "", fmt.Errorf("unterminated label set in %q", line)
			}
			lname := rest[:eq]
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				return "", nil, "", fmt.Errorf("unquoted label value for %s", lname)
			}
			lv, n, err := scanQuoted(rest)
			if err != nil {
				return "", nil, "", err
			}
			labels = append(labels, [2]string{lname, lv})
			rest = rest[n:]
		}
	} else {
		name, rest = rest[:i], rest[i:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, "", fmt.Errorf("sample %q: want value [timestamp], got %d fields", line, len(fields))
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, "", fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, fields[0], nil
}

// scanQuoted reads a quoted, escaped label value starting at s[0] == '"',
// returning the decoded value and bytes consumed.
func scanQuoted(s string) (string, int, error) {
	var sb strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling escape in label value")
			}
			switch s[i+1] {
			case '\\', '"':
				sb.WriteByte(s[i+1])
			case 'n':
				sb.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("bad escape \\%c in label value", s[i+1])
			}
			i++
		case '"':
			return sb.String(), i + 1, nil
		default:
			sb.WriteByte(s[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// joinLabels renders a canonical (sorted) label signature for duplicate
// detection: the format forbids the same name+labelset twice regardless of
// label order.
func joinLabels(labels [][2]string) string {
	ls := make([]string, len(labels))
	for i, l := range labels {
		ls[i] = l[0] + "=" + strconv.Quote(l[1])
	}
	sort.Strings(ls)
	return strings.Join(ls, ",")
}

// checkValue validates a sample value: a float (ParseFloat accepts the
// spec's NaN/+Inf/-Inf spellings).
func checkValue(v string) error {
	if _, err := strconv.ParseFloat(v, 64); err != nil {
		return fmt.Errorf("unparseable value %q", v)
	}
	return nil
}
