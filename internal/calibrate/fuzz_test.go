package calibrate

import (
	"encoding/json"
	"reflect"
	"testing"
)

// ParseDataset decodes untrusted bytes: a -calibration-file and the body
// of the daemon's POST /runs/{id}/calibrate. Arbitrary bytes must never
// panic it, and a dataset it accepts must be valid and survive a
// marshal → parse round trip unchanged.
func FuzzParseDataset(f *testing.F) {
	paper, err := json.Marshal(PaperObserved())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(paper)
	f.Add(paper[:len(paper)/2])
	f.Add([]byte(`{"version":3,"campaigns":{"c":{"expect":[{"query":"q","check":"value","metric":"m","value":5,"tolerance":{"rel":0.1}}]}}}`))
	f.Add([]byte(`{"version":1,"campaigns":{"c":{"expect":[{"query":"q","check":"ratio-ge","metric":"m","ref":"a/b","ratio":0.5}]}}}`))
	f.Add([]byte(`{"version":1,"campaigns":{"c":null}}`))
	f.Add([]byte(`{"campaigns":{}}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ParseDataset(data)
		if err != nil {
			return
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("accepted a dataset Validate rejects: %v", err)
		}
		out, err := json.Marshal(ds)
		if err != nil {
			t.Fatalf("marshalling an accepted dataset: %v", err)
		}
		again, err := ParseDataset(out)
		if err != nil {
			t.Fatalf("an accepted dataset does not parse back: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(again, ds) {
			t.Fatalf("parse → marshal → parse changed the dataset:\n%s", out)
		}
		if out2, _ := json.Marshal(again); string(out2) != string(out) {
			t.Fatalf("marshal is not a fixed point:\n%s\n%s", out, out2)
		}
	})
}
