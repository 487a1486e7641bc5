package scenario

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/ed2k"
	"repro/internal/honeypot"
	"repro/internal/peersim"
)

// Env is the slice of the running campaign a targets builder may see:
// the spec, the generated catalog, and the launched fleet with its
// resolved advertised files. Builders must derive everything from it
// deterministically.
type Env struct {
	Spec    Spec
	Catalog *catalog.Catalog
	// Honeypots is the live fleet keyed by ID; Files holds each
	// member's initially advertised set.
	Honeypots map[string]*honeypot.Honeypot
	Files     map[string][]client.SharedFile
}

// fleetMember resolves a TargetsSpec's honeypot reference ("" = the
// first fleet member).
func (e *Env) fleetMember(ts TargetsSpec) (string, error) {
	id := ts.Honeypot
	if id == "" {
		if len(e.Spec.Fleet) == 0 {
			return "", fmt.Errorf("scenario: empty fleet")
		}
		id = e.Spec.Fleet[0].ID
	}
	if e.Honeypots[id] == nil {
		return "", fmt.Errorf("scenario: targets reference unknown honeypot %q", id)
	}
	return id, nil
}

// TargetsBuilder compiles a workload's TargetsSpec into the live target
// function peersim polls, plus the per-unit-weight arrival intensity
// derived from the workload's ArrivalsPerDay (builders that normalize a
// growing list divide here).
type TargetsBuilder func(env *Env, ws WorkloadSpec) (targets func() []peersim.TargetFile, arrivalsPerWeight float64, err error)

// targetBuilders is the pluggable target-function registry; "static"
// and "advertised-ramp" are built in, and tests or downstream scenarios
// may add their own kinds via RegisterTargets.
var targetBuilders = map[string]TargetsBuilder{}

// RegisterTargets adds a target-function kind. It errors on duplicates
// so two packages cannot silently fight over a name.
func RegisterTargets(kind string, b TargetsBuilder) error {
	if kind == "" || b == nil {
		return fmt.Errorf("scenario: RegisterTargets needs a kind and a builder")
	}
	if _, dup := targetBuilders[kind]; dup {
		return fmt.Errorf("scenario: targets kind %q already registered", kind)
	}
	targetBuilders[kind] = b
	return nil
}

func knownTargetsKind(kind string) bool {
	_, ok := targetBuilders[kind]
	return ok
}

func targetKinds() []string {
	kinds := make([]string, 0, len(targetBuilders))
	for k := range targetBuilders {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	return kinds
}

func init() {
	if err := RegisterTargets("static", buildStaticTargets); err != nil {
		panic(err)
	}
	if err := RegisterTargets("advertised-ramp", buildAdvertisedRampTargets); err != nil {
		panic(err)
	}
}

// buildStaticTargets weights the referenced honeypot's initial
// advertised files once: Weights[i] per file, 0.25 beyond the list, or
// uniform weight 1 when no weights are given.
func buildStaticTargets(env *Env, ws WorkloadSpec) (func() []peersim.TargetFile, float64, error) {
	id, err := env.fleetMember(ws.Targets)
	if err != nil {
		return nil, 0, err
	}
	files := env.Files[id]
	targets := make([]peersim.TargetFile, len(files))
	for i, f := range files {
		wgt := 1.0
		if len(ws.Targets.Weights) > 0 {
			wgt = 0.25
			if i < len(ws.Targets.Weights) {
				wgt = ws.Targets.Weights[i]
			}
		}
		targets[i] = peersim.TargetFile{Hash: f.Hash, Name: f.Name, Size: f.Size, Weight: wgt}
	}
	return func() []peersim.TargetFile { return targets }, ws.ArrivalsPerDay, nil
}

// buildAdvertisedRampTargets follows a honeypot's growing advertised
// list (the greedy campaign's dynamics): file at rank i draws weight
// 1/(i+1)^Exp, scaled by a discovery ramp — the network only gradually
// notices freshly advertised content, which reproduces Fig 3's
// near-invisible first day. The first ExemptFirst files (established
// seed content) skip the ramp. Weights are normalized so a fully grown
// list of NormFiles sums to 1, making ArrivalsPerDay the steady-state
// intensity.
func buildAdvertisedRampTargets(env *Env, ws WorkloadSpec) (func() []peersim.TargetFile, float64, error) {
	id, err := env.fleetMember(ws.Targets)
	if err != nil {
		return nil, 0, err
	}
	hp := env.Honeypots[id]
	ts := ws.Targets

	ramp := time.Duration(ts.Ramp)
	if ramp <= 0 {
		ramp = 30 * time.Hour // the paper's discovery ramp
	}
	norm := 0.0
	for i := 0; i < ts.NormFiles; i++ {
		norm += rankWeight(i, ts.Exp)
	}
	if norm <= 0 {
		norm = 1
	}

	hpHost := hp.Client().Host()
	addedAt := map[ed2k.Hash]time.Time{}
	// Each refresh rewrites the last one's list (peersim reads a list
	// only until its next refresh) and extends the rank weights table.
	var out []peersim.TargetFile
	var weights []float64
	fn := func() []peersim.TargetFile {
		now := hpHost.Now()
		adv := hp.Advertised()
		for len(weights) < len(adv) {
			weights = append(weights, rankWeight(len(weights), ts.Exp))
		}
		out = out[:0]
		for i, f := range adv {
			t0, seen := addedAt[f.Hash]
			if !seen {
				t0 = now
				addedAt[f.Hash] = now
			}
			r := float64(now.Sub(t0)) / float64(ramp)
			if r > 1 || i < ts.ExemptFirst {
				r = 1
			}
			out = append(out, peersim.TargetFile{
				Hash: f.Hash, Name: f.Name, Size: f.Size,
				Weight: weights[i] * r,
			})
		}
		return out
	}
	return fn, ws.ArrivalsPerDay / norm, nil
}

// rankWeight is the per-file arrival weight at list rank.
func rankWeight(rank int, exp float64) float64 {
	return math.Pow(1/float64(rank+1), exp)
}

// knownFilesKind reports whether a FilesSpec kind has a resolver.
func knownFilesKind(kind string) bool {
	switch kind {
	case "four-bait", "songs":
		return true
	}
	return false
}

// resolveFiles materializes a FilesSpec against the catalog.
func resolveFiles(fs FilesSpec, cat *catalog.Catalog) ([]client.SharedFile, error) {
	switch fs.Kind {
	case "four-bait":
		return FourBaitFiles(cat), nil
	case "songs":
		out := make([]client.SharedFile, 0, fs.N)
		for i := 0; i < cat.Len() && len(out) < fs.N; i++ {
			f := cat.File(i)
			if f.Kind == catalog.Song {
				out = append(out, client.SharedFile{Hash: f.Hash, Name: f.Name, Size: f.Size, Type: f.Kind.String()})
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("scenario: unknown files kind %q", fs.Kind)
	}
}

// FourBaitFiles picks the paper's four advertised files from the
// catalog: a movie, a song, a Linux-distribution-like image and a text.
func FourBaitFiles(cat *catalog.Catalog) []client.SharedFile {
	kinds := []catalog.Kind{catalog.Movie, catalog.Song, catalog.Distro, catalog.Text}
	out := make([]client.SharedFile, 0, 4)
	for _, k := range kinds {
		for i := 0; i < cat.Len(); i++ {
			f := cat.File(i)
			if f.Kind == k {
				out = append(out, client.SharedFile{Hash: f.Hash, Name: f.Name, Size: f.Size, Type: f.Kind.String()})
				break
			}
		}
	}
	return out
}
