package logstore

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Tests of the on-disk format version: a store written in another
// format fails with a *FormatError naming the version, and the failed
// open leaves every byte as it found it.

// snapshotDir maps every file under dir to its contents.
func snapshotDir(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// setVersion rewrites the version digit of the magic that starts path.
func setVersion(t *testing.T, path string, v byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(segMagic)-2] = v
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantFormatError opens dir and requires a *FormatError for path at
// version v, with nothing on disk changed.
func wantFormatError(t *testing.T, dir, path string, v int) {
	t.Helper()
	before := snapshotDir(t, dir)
	st, err := Open(dir, smallOpts())
	if err == nil {
		st.Close()
	}
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Path != path || fe.Version != v {
		t.Fatalf("open returned %v, want a *FormatError for %s at v%d", err, path, v)
	}
	if !strings.Contains(err.Error(), "v"+itoa(int64(v))) {
		t.Errorf("error %q does not name the version", err)
	}
	if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused open changed the store on disk")
	}
}

func TestFormatV1ManifestRefused(t *testing.T) {
	for _, v := range []byte{'1', '2', '4'} {
		dir := t.TempDir()
		writeShard(t, dir, 200)
		path := filepath.Join(dir, manifestName)
		setVersion(t, path, v)
		wantFormatError(t, dir, path, int(v-'0'))
	}
}

func TestFormatV1SegmentRefused(t *testing.T) {
	// Every earlier version, v2 (text peer and user hash columns)
	// included: no second decoder reads it.
	for _, v := range []byte{'1', '2'} {
		// A tail the open must scan: no Close recorded it.
		dir := t.TempDir()
		writeShard(t, dir, 200)
		path := lastSegPath(t, dir, "hp-00")
		dropClosedTails(t, dir)
		setVersion(t, path, v)
		wantFormatError(t, dir, path, int(v-'0'))

		// A sealed segment under a trusted entry is not read at open, but
		// no scan reads it as data either.
		dir = t.TempDir()
		writeShard(t, dir, 200)
		first := filepath.Join(dir, "hp-00", segName(1))
		setVersion(t, first, v)
		st, err := Open(dir, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		var fe *FormatError
		it, err := st.Iterator()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(); !errors.As(err, &fe) || fe.Path != first || fe.Version != int(v-'0') {
			t.Fatalf("scan of a v%c segment returned %v, want a *FormatError", v, err)
		}
		it.Close()
		sh, _ := st.Shard("hp-00")
		if recs, _, err := sh.ReadSince(Checkpoint{}, 0); !errors.As(err, &fe) || len(recs) != 0 {
			t.Fatalf("ReadSince over a v%c segment returned %d records, %v", v, len(recs), err)
		}
		st.Close()
	}
}

func TestFormatMagicsAgree(t *testing.T) {
	// Both magics carry the one format version.
	for _, m := range []string{segMagic, manifestMagic} {
		if m[len(m)-2] != '0'+formatVersion {
			t.Errorf("magic %q does not carry format v%d", m, formatVersion)
		}
	}
	// Another family's magic is no version of this one.
	if err := checkMagic("x", []byte(namesMagic), segMagic); err != errNotMagic {
		t.Errorf("another family's magic: %v", err)
	}
}
