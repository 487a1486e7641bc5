package scenario

// Campaigns with the same catalog config share one catalog per process
// (progress.go, catalogFor). These tests see which catalog a campaign
// was built over through a targets kind that reports it, and pin that
// sharing never hands a campaign a universe of another config.

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/peersim"
)

// probed records, by spec name, the catalog each campaign whose
// workloads target "catalog-probe" was built over.
var probed struct {
	sync.Mutex
	cats map[string]*catalog.Catalog
}

func init() {
	probed.cats = map[string]*catalog.Catalog{}
	err := RegisterTargets("catalog-probe", func(env *Env, ws WorkloadSpec) (func() []peersim.TargetFile, float64, error) {
		probed.Lock()
		probed.cats[env.Spec.Name] = env.Catalog
		probed.Unlock()
		return buildStaticTargets(env, ws)
	})
	if err != nil {
		panic(err)
	}
}

// probedCatalog is the catalog the campaign named name was built over.
func probedCatalog(name string) *catalog.Catalog {
	probed.Lock()
	defer probed.Unlock()
	return probed.cats[name]
}

// probeSpec is validSpec named name over the catalog cfg, its workload
// reporting the catalog it gets.
func probeSpec(name string, cfg catalog.Config) Spec {
	spec := validSpec()
	spec.Name = name
	spec.Catalog = cfg
	spec.Workloads[0].Targets.Kind = "catalog-probe"
	return spec
}

// runProbe runs spec with a registry and returns the catalog it was
// built over and whether the build took the shared one.
func runProbe(t *testing.T, spec Spec) (*catalog.Catalog, bool) {
	t.Helper()
	reg := obs.New()
	if _, err := RunWith(spec, RunOptions{Metrics: reg}); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	cat := probedCatalog(spec.Name)
	if cat == nil {
		t.Fatalf("%s: the probe saw no catalog", spec.Name)
	}
	return cat, reg.Snapshot().Counters["engine.catalog.reused"] == 1
}

// sameFiles compares two catalogs field for field: every file's size
// through the mean of the size column, and every field of the top 1,000
// files and of every 97th file beyond (a File read mints its hash, so a
// full walk of a default catalog costs seconds under -race).
func sameFiles(t *testing.T, what string, got, want *catalog.Catalog) {
	t.Helper()
	if got.Len() != want.Len() || meanSize(got) != meanSize(want) {
		t.Fatalf("%s: %d files of mean size %d, want %d of %d", what, got.Len(), meanSize(got), want.Len(), meanSize(want))
	}
	for i := 0; i < got.Len(); i++ {
		if i >= 1000 && i%97 != 0 {
			continue
		}
		if g, w := got.File(i), want.File(i); g != w {
			t.Fatalf("%s: file %d is %+v, want %+v", what, i, g, w)
		}
	}
}

// meanSize is c's mean file size. It reads the catalog's size column
// through reflection, since every exported read of a size mints that
// file's hash.
func meanSize(c *catalog.Catalog) int64 {
	sizes := reflect.ValueOf(c).Elem().FieldByName("sizes")
	var sum int64
	for i := range sizes.Len() {
		sum += sizes.Index(i).Int()
	}
	return sum / int64(sizes.Len())
}

// TestSharedCatalogAcrossCampaigns: two campaigns in a row over the
// default catalog config are built over one catalog, and the second
// says it took the shared one.
func TestSharedCatalogAcrossCampaigns(t *testing.T) {
	first, _ := runProbe(t, probeSpec("share-1", catalog.DefaultConfig()))
	second, reused := runProbe(t, probeSpec("share-2", catalog.DefaultConfig()))
	if second != first {
		t.Error("the second default campaign built its own catalog")
	}
	if !reused {
		t.Error("engine.catalog.reused is 0 on a campaign that took the shared catalog")
	}
}

// TestSharedCatalogFollowsConfig: a campaign over another config (seed
// 2) gets exactly what catalog.Generate builds for it, and the next
// default campaign gets the default files again, not the seed-2 ones.
func TestSharedCatalogFollowsConfig(t *testing.T) {
	def, seed2 := catalog.DefaultConfig(), catalog.DefaultConfig()
	seed2.Seed = 2
	defFiles, _ := catalogFor(def)

	got, reused := runProbe(t, probeSpec("seed-2", seed2))
	if reused {
		t.Error("a campaign over a new config reports a shared catalog")
	}
	sameFiles(t, "seed-2 campaign", got, catalog.Generate(seed2))

	again, reused := runProbe(t, probeSpec("default-again", def))
	if reused {
		t.Error("the default campaign after a seed-2 one reports a shared catalog")
	}
	sameFiles(t, "default campaign after seed 2", again, defFiles)
}
