package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/catalog"
)

// FuzzSpecJSON throws arbitrary bytes at the spec decoder, as POST /runs
// does with a client's "spec". Validate must never panic; a spec it
// accepts must have a catalog Generate can build without exhausting
// memory or looping, and must survive a marshal/unmarshal round trip
// with its JSON form unchanged.
func FuzzSpecJSON(f *testing.F) {
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// The same runnable spec asking for a catalog no daemon survives.
		spec.Catalog.NumFiles = 4_000_000_000
		if data, err = json.Marshal(spec); err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if spec.Validate() != nil {
			return
		}
		if n := spec.Catalog.NumFiles; n < 1 || n > catalog.MaxFiles {
			t.Fatalf("accepted catalog.num_files %d outside [1, %d]", n, catalog.MaxFiles)
		}
		if v := spec.Catalog.Vocabulary; v > catalog.MaxVocabulary {
			t.Fatalf("accepted catalog.vocabulary %d above %d", v, catalog.MaxVocabulary)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("accepted spec's JSON does not decode: %v\n%s", err, enc)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec rejected: %v\n%s", err, enc)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the spec:\n%s\n%s", enc, again)
		}
	})
}
