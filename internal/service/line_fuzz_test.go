package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzRunLineEncoding: for any RunLine, appendJSON renders exactly
// json.Marshal's bytes — escaping of HTML characters, quotes, control
// bytes, invalid UTF-8 and U+2028/U+2029, zero and omitted fields
// included — LineIndex reads the index back from the rendering, and
// decodeRunLine reads back what json.Unmarshal does, through the
// scanner (never encoding/json) when no string needed an escape. On
// arbitrary bytes LineIndex and decodeRunLine never panic; when
// LineIndex reports an index of a JSON object holding one index key,
// json.Unmarshal reads the same one, and whenever the scanner accepts
// a line, json.Unmarshal accepts it and reads the same RunLine.
//
//	go test -run '^$' -fuzz=FuzzRunLineEncoding -fuzztime=30s ./internal/service
func FuzzRunLineEncoding(f *testing.F) {
	f.Add(0, "job/0", "", int64(0), int64(0), int64(0), "", int64(0), "", []byte(`{"index":0,"name":"job/0"}`))
	f.Add(255, "job/255", "job", int64(150000), int64(12), int64(7), "0123456789abcdef", int64(3), "",
		[]byte(`{"index":255,"name":"job/255","cycles":1}`))
	f.Add(17, `<a href="x">&amp;</a>`, "g h ", int64(-1), int64(1<<62), int64(-1<<63), "\x00\x1f\x7fé",
		int64(-4), "bad \xff\xfe utf8 \"quoted\" \\ \b\f\n\r\t \xe2\x80", []byte(`{"index":017,"name":""}`))
	f.Add(-3, "", "", int64(0), int64(0), int64(0), "", int64(0), "runtime error", []byte(`{"index":1,"INDEX":2}`))
	f.Add(9, "x", "", int64(0), int64(0), int64(0), "", int64(0), "", []byte(`{"index":99999999999999999999,"name":"x"}`))
	f.Add(4, "job#4", "job", int64(50), int64(0), int64(0), "d", int64(0), "",
		[]byte(`{"index":4,"name":"job#4","group":"job","cycles":-9223372036854775808,"mem_reads":0,"mem_writes":9223372036854775807,"digest":"d","activated":2,"error":"e"}`))
	f.Add(5, "job#5", "", int64(0), int64(0), int64(0), "", int64(0), "",
		[]byte(`{"index":5,"name":"a\u0062","cycles":-0,"mem_reads":01,"mem_writes":9223372036854775808,"digest":""} `))
	f.Fuzz(func(t *testing.T, index int, name, group string, cycles, reads, writes int64,
		digest string, activated int64, errText string, raw []byte) {
		l := RunLine{
			Index: index, Name: name, Group: group, Cycles: cycles,
			MemReads: reads, MemWrites: writes, Digest: digest,
			Activated: activated, Err: errText,
		}
		want, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.appendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("appendJSON differs from json.Marshal:\n got %q\nwant %q", got, want)
		}
		if got := l.appendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("appendJSON does not append: %q", got)
		}
		if i, ok := LineIndex(want); ok != (index >= 0) || (ok && i != index) {
			t.Fatalf("LineIndex(%q) = %d, %v; want %d", want, i, ok, index)
		}

		var back RunLine
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		if got, ok := decodeRunLine(want); !ok || got != back {
			t.Fatalf("decodeRunLine(%q) = %+v, %v; json.Unmarshal reads %+v", want, got, ok, back)
		}
		_, scanned := scanRunLine(string(want))
		if plain := unescaped(name) && unescaped(group) && unescaped(digest) && unescaped(errText); scanned != plain {
			t.Fatalf("scanRunLine(%q) accepts %v; strings need no escape: %v", want, scanned, plain)
		}

		decodeRunLine(raw)
		if got, ok := scanRunLine(string(raw)); ok {
			var v RunLine
			if err := json.Unmarshal(raw, &v); err != nil || v != got {
				t.Fatalf("scanRunLine(%q) = %+v; json.Unmarshal reads %+v (err %v)", raw, got, v, err)
			}
		}
		i, ok := LineIndex(raw)
		if !ok || !json.Valid(raw) || indexKeys(raw) != 1 {
			return
		}
		var v struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal(raw, &v); err != nil || v.Index != i {
			t.Fatalf("LineIndex(%q) = %d, json.Unmarshal reads %d (err %v)", raw, i, v.Index, err)
		}
	})
}

// unescaped reports whether appendJSON renders s as is: printable
// ASCII other than the quote, the backslash and the HTML-escaped <, >
// and &.
func unescaped(s string) bool {
	for _, c := range []byte(s) {
		if c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// indexKeys counts the top-level keys of a JSON object that
// encoding/json decodes into a field named "index" (it matches keys
// case-insensitively), or returns -1 when data is not an object.
func indexKeys(data []byte) int {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return -1
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return -1
		}
		if key, _ := tok.(string); strings.EqualFold(key, "index") {
			n++
		}
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			return -1
		}
	}
	return n
}
