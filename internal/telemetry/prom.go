package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the value to serve with a text exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Exposition renders a metrics snapshot struct as a Prometheus text
// exposition (format version 0.0.4). A daemon declares each metric
// once, as a field of the struct it also serves as JSON, and this view
// is derived from the field's tags: its json key names it, its help
// tag is the family's # HELP text, and its prom tag says how to expose
// it. A field becomes the family prefix + key:
//
//   - a signed integer, float or bool field is a counter, named with a
//     _total suffix unless its name already ends in one; tagged
//     prom:"gauge", it is a gauge;
//   - a HistogramSnapshot is an (unlabeled) histogram;
//   - prom:"-" keeps a field JSON-only;
//   - prom:"family,label=value" makes the field the sample labeled
//     label=value of family prefix + family; the family's help tag
//     sits on its first field;
//   - a slice of structs tagged prom:"label=key" gives each field of
//     the element type the family prefix + label + "_" + field key,
//     with one sample per element labeled by the element's key field.
//
// Embedded structs are flattened as encoding/json flattens them, and
// fields of any other kind (strings) are skipped. Families come out in
// field order. ValidateExposition below checks the same grammar, so
// the writer and the e2e validator cannot drift apart silently.
func Exposition(prefix string, snapshot any) []byte {
	var e exposition
	e.fields(prefix, reflect.ValueOf(snapshot), "")
	var b strings.Builder
	for _, f := range e {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		b.WriteString(f.samples.String())
	}
	return []byte(b.String())
}

var (
	histogramType = reflect.TypeOf(HistogramSnapshot{})
	labelEscaper  = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// exposition collects families in the order their first field appears.
type exposition []*family

type family struct {
	name, typ, help string
	samples         strings.Builder
}

// family returns the named family, opening it on first use.
func (e *exposition) family(name, typ, help string) *family {
	for _, f := range *e {
		if f.name == name {
			return f
		}
	}
	f := &family{name: name, typ: typ, help: help}
	*e = append(*e, f)
	return f
}

// fields adds the struct v's fields to the exposition; labels is the
// rendered label set every sample of v carries.
func (e *exposition) fields(prefix string, v reflect.Value, labels string) {
	for i := 0; i < v.NumField(); i++ {
		sf, fv := v.Type().Field(i), v.Field(i)
		if sf.Anonymous {
			e.fields(prefix, fv, labels)
			continue
		}
		key, tag, help := jsonKey(sf), sf.Tag.Get("prom"), sf.Tag.Get("help")
		if !sf.IsExported() || key == "" || key == "-" || tag == "-" {
			continue
		}
		if sf.Type == histogramType {
			e.family(prefix+key, "histogram", help).histogram(fv.Interface().(HistogramSnapshot))
			continue
		}
		if fv.Kind() == reflect.Slice {
			label, from, _ := strings.Cut(tag, "=")
			for j := 0; j < fv.Len(); j++ {
				el := fv.Index(j)
				e.fields(prefix+label+"_", el, withLabel(labels, label, labelValue(el, from)))
			}
			continue
		}
		val, ok := sampleValue(fv)
		if !ok {
			continue
		}
		name, typ, own := key, "counter", labels
		for rest := tag; rest != ""; {
			var part string
			part, rest, _ = strings.Cut(rest, ",")
			switch k, lv, isLabel := strings.Cut(part, "="); {
			case part == "gauge":
				typ = "gauge"
			case isLabel:
				own = withLabel(own, k, lv)
			case part != "":
				name = part
			}
		}
		if typ == "counter" && !strings.HasSuffix(name, "_total") {
			name += "_total"
		}
		e.family(prefix+name, typ, help).sample("", own, promFloat(val))
	}
}

// histogram writes a snapshot's samples: cumulative _bucket samples
// over the finite bounds, the +Inf bucket (equal to _count by
// construction), then _sum and _count.
func (f *family) histogram(s HistogramSnapshot) {
	for _, b := range s.Buckets {
		f.sample("_bucket", `le="`+promFloat(b.LE)+`"`, strconv.FormatInt(b.N, 10))
	}
	f.sample("_bucket", `le="+Inf"`, strconv.FormatInt(s.Count, 10))
	f.sample("_sum", "", promFloat(s.Sum))
	f.sample("_count", "", strconv.FormatInt(s.Count, 10))
}

// sample writes one sample line: the family name plus suffix, the
// label set (if any) and the value.
func (f *family) sample(suffix, labels, value string) {
	f.samples.WriteString(f.name)
	f.samples.WriteString(suffix)
	if labels != "" {
		f.samples.WriteString("{" + labels + "}")
	}
	f.samples.WriteString(" " + value + "\n")
}

func jsonKey(sf reflect.StructField) string {
	key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
	return key
}

// labelValue is the struct v's field with json key key, as a label value.
func labelValue(v reflect.Value, key string) string {
	for i := 0; i < v.NumField(); i++ {
		if jsonKey(v.Type().Field(i)) == key {
			return fmt.Sprint(v.Field(i).Interface())
		}
	}
	return ""
}

func withLabel(labels, name, value string) string {
	l := name + `="` + labelEscaper.Replace(value) + `"`
	if labels == "" {
		return l
	}
	return labels + "," + l
}

// sampleValue is a numeric or bool field's sample value (a bool is 1
// or 0); ok is false for any other kind.
func sampleValue(v reflect.Value) (val float64, ok bool) {
	switch {
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return 1, true
		}
		return 0, true
	case v.CanInt():
		return float64(v.Int()), true
	case v.CanFloat():
		return v.Float(), true
	}
	return 0, false
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// A label is name="value", the value escaping only \\, \" and \n; a
// sample's label set is one or more comma-separated labels, with an
// optional trailing comma.
const labelPat = `([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\[\\"n])*)"`

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE      = regexp.MustCompile(labelPat)
	sampleRE     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(` + labelPat + `(?:,` + labelPat + `)*,?)\})? (\S+)$`)
)

type promFamily struct {
	typ     string
	help    bool
	samples int
	// histogram bookkeeping
	buckets  []Bucket // in emission order, le parsed
	infN     int64
	hasInf   bool
	sum      float64
	hasSum   bool
	count    int64
	hasCount bool
}

// ValidateExposition strictly checks a Prometheus text exposition:
// every sample must belong to a family declared with a # HELP and
// # TYPE pair, metric and label names must be well-formed, histogram
// buckets must carry ascending le edges with monotone non-decreasing
// cumulative counts, a +Inf bucket must be present and equal _count,
// counters must be finite and non-negative, and no series (name plus
// label set) may appear twice. The e2e suites run it against live
// /metrics?format=prometheus responses.
func ValidateExposition(data []byte) error {
	fams := make(map[string]*promFamily)
	series := make(map[string]bool)
	baseOf := func(name string) (string, string) {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if f, ok := fams[base]; ok && f.typ == "histogram" {
					return base, suf
				}
			}
		}
		return name, ""
	}
	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := parts[2]
			if !metricNameRE.MatchString(name) {
				return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
			}
			f := fams[name]
			if f == nil {
				f = &promFamily{}
				fams[name] = f
			}
			if len(parts) < 4 || strings.TrimSpace(parts[3]) == "" {
				return fmt.Errorf("line %d: %s for %s has no text", lineNo, parts[1], name)
			}
			if parts[1] == "HELP" {
				f.help = true
			} else {
				if f.typ != "" {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				switch typ := parts[3]; typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = typ
				default:
					return fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, parts[3], name)
				}
				if !f.help {
					return fmt.Errorf("line %d: TYPE for %s precedes its HELP", lineNo, name)
				}
			}
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		name, labels, valStr := m[1], m[2], m[len(m)-1]
		if series[name+"{"+labels+"}"] {
			return fmt.Errorf("line %d: duplicate series %s{%s}", lineNo, name, labels)
		}
		series[name+"{"+labels+"}"] = true
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("line %d: bad value %q: %v", lineNo, valStr, err)
		}
		var le string
		seen := map[string]bool{}
		for _, lm := range labelRE.FindAllStringSubmatch(labels, -1) {
			if seen[lm[1]] {
				return fmt.Errorf("line %d: label %s repeated", lineNo, lm[1])
			}
			seen[lm[1]] = true
			if lm[1] == "le" {
				le = lm[2]
			}
		}
		base, suffix := baseOf(name)
		f, ok := fams[base]
		if !ok || !f.help || f.typ == "" {
			return fmt.Errorf("line %d: sample %s has no preceding HELP/TYPE pair", lineNo, name)
		}
		f.samples++
		switch {
		case f.typ == "counter":
			if math.IsNaN(val) || math.IsInf(val, 0) || val < 0 {
				return fmt.Errorf("line %d: counter %s has invalid value %s", lineNo, name, valStr)
			}
		case f.typ == "histogram" && suffix == "":
			return fmt.Errorf("line %d: histogram %s has a sample that is no _bucket, _sum or _count", lineNo, name)
		case f.typ == "histogram" && suffix == "_bucket":
			if le == "" {
				return fmt.Errorf("line %d: histogram bucket %s lacks an le label", lineNo, name)
			}
			if le == "+Inf" {
				f.hasInf, f.infN = true, int64(val)
				break
			}
			edge, err := strconv.ParseFloat(le, 64)
			if err != nil || math.IsNaN(edge) {
				return fmt.Errorf("line %d: bad le %q", lineNo, le)
			}
			f.buckets = append(f.buckets, Bucket{LE: edge, N: int64(val)})
		case f.typ == "histogram" && suffix == "_sum":
			f.hasSum, f.sum = true, val
		case f.typ == "histogram" && suffix == "_count":
			f.hasCount, f.count = true, int64(val)
		}
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if f.typ == "" || !f.help {
			return fmt.Errorf("family %s lacks a HELP/TYPE pair", name)
		}
		if f.samples == 0 {
			return fmt.Errorf("family %s declares HELP/TYPE but has no samples", name)
		}
		if f.typ != "histogram" {
			continue
		}
		if !f.hasInf {
			return fmt.Errorf("histogram %s has no +Inf bucket", name)
		}
		if !f.hasSum || !f.hasCount {
			return fmt.Errorf("histogram %s lacks _sum or _count", name)
		}
		if f.count != f.infN {
			return fmt.Errorf("histogram %s: _count %d != +Inf bucket %d", name, f.count, f.infN)
		}
		prev := Bucket{LE: math.Inf(-1), N: 0}
		for _, b := range f.buckets {
			if b.LE <= prev.LE {
				return fmt.Errorf("histogram %s: bucket edges not ascending (%g after %g)", name, b.LE, prev.LE)
			}
			if b.N < prev.N {
				return fmt.Errorf("histogram %s: cumulative counts decrease at le=%g (%d < %d)", name, b.LE, b.N, prev.N)
			}
			prev = b
		}
		if prev.N > f.infN {
			return fmt.Errorf("histogram %s: finite bucket %d exceeds +Inf bucket %d", name, prev.N, f.infN)
		}
	}
	return nil
}
