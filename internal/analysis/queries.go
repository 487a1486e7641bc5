package analysis

// The built-in queries: every table and figure of the paper's
// evaluation (plus the co-interest analysis its conclusion announces)
// as registered artifact extractors over the frame. repro assembles its
// Report from the full paper plan; cmd/measure -queries extracts any
// subset without computing the rest.

import (
	"math/rand"

	"repro/internal/ed2k"
	"repro/internal/logging"
	"repro/internal/randsrc"
	"repro/internal/stats"
)

// PaperWeekHours caps the hourly-HELLO window of Fig 4: the paper plots
// "the number of HELLO messages received during each hour of the first
// week of our measurement", so the series holds at most 7×24 buckets
// however long the campaign ran.
const PaperWeekHours = 7 * 24

// TopPeerInfo is the top-peer query's result: the busiest peer (most
// HELLO + START-UPLOAD + REQUEST-PART queries) and its query count.
type TopPeerInfo struct {
	Peer    string `json:"peer"`
	Queries int    `json:"queries"`
}

// PeerSets is a peer-set query's result: per-unit (honeypot or file)
// sorted distinct step-2 peer numbers, plus the smallest array size
// covering every number — the inputs of stats.UnionEstimate. A peer
// number that does not fit an int32 (a crafted export or frame file can
// carry any) is not observed: it is in no set and does not widen the
// universe, as a negative id counts toward no union.
type PeerSets struct {
	Sets     [][]int32 `json:"sets"`
	Universe int       `json:"universe"`
}

// Canonical query names. Plans may also use any caller-registered name.
const (
	QueryTableI                  = "table-i"
	QueryPeerGrowth              = "peer-growth"
	QueryHourlyHello             = "hourly-hello"
	QueryHelloPeersByGroup       = "hello-peers-by-group"
	QueryStartUploadPeersByGroup = "start-upload-peers-by-group"
	QueryRequestPartsByGroup     = "request-parts-by-group"
	QueryTopPeer                 = "top-peer"
	QueryTopPeerStartUpload      = "top-peer-start-upload"
	QueryTopPeerRequestParts     = "top-peer-request-parts"
	QueryHoneypotPeerSets        = "honeypot-peer-sets"
	QueryHoneypotSubsets         = "honeypot-subsets"
	QueryQueriedFiles            = "queried-files"
	QueryPopularFiles            = "popular-files"
	QueryRandomFiles             = "random-files"
	QueryPopularFilePeerSets     = "popular-file-peer-sets"
	QueryRandomFilePeerSets      = "random-file-peer-sets"
	QueryPopularFileSubsets      = "popular-file-subsets"
	QueryRandomFileSubsets       = "random-file-subsets"
	QueryCoInterest              = "co-interest"
)

func init() {
	mustRegister(Query{
		Name: QueryTableI,
		Doc:  "Table I: honeypots, duration, shared files, distinct peers/files, space",
		Run: func(qc *QueryContext) (any, error) {
			return qc.Frame.TableI(len(qc.Meta.HoneypotIDs), qc.Meta.Days, len(qc.Meta.Advertised)), nil
		},
	})
	mustRegister(Query{
		Name: QueryPeerGrowth,
		Doc:  "Fig 2/3: cumulative and per-day new distinct peers",
		Run: func(qc *QueryContext) (any, error) {
			return qc.Frame.PeerGrowth(qc.Meta.Start, qc.Meta.Days), nil
		},
	})
	mustRegister(Query{
		Name: QueryHourlyHello,
		Doc:  "Fig 4: HELLO messages per hour (window capped at MaxHours, default one week)",
		Run: func(qc *QueryContext) (any, error) {
			hours := qc.Meta.Days * 24
			if hours > qc.Opt.MaxHours {
				hours = qc.Opt.MaxHours
			}
			return qc.Frame.HourlyHello(qc.Meta.Start, hours), nil
		},
	})
	mustRegister(Query{
		Name: QueryHelloPeersByGroup,
		Doc:  "Fig 5: cumulative distinct HELLO peers per strategy group",
		Run:  groupDistinctPeers(logging.KindHello),
	})
	mustRegister(Query{
		Name: QueryStartUploadPeersByGroup,
		Doc:  "Fig 6: cumulative distinct START-UPLOAD peers per strategy group",
		Run:  groupDistinctPeers(logging.KindStartUpload),
	})
	mustRegister(Query{
		Name: QueryRequestPartsByGroup,
		Doc:  "Fig 7: cumulative REQUEST-PART messages per strategy group",
		Run: func(qc *QueryContext) (any, error) {
			return qc.Frame.GroupMessageCounts(qc.Meta.GroupOf, logging.KindRequestPart, qc.Meta.Start, qc.Meta.Days), nil
		},
	})
	mustRegister(Query{
		Name: QueryTopPeer,
		Doc:  "Figs 8/9's subject: the peer sending the most queries",
		Run: func(qc *QueryContext) (any, error) {
			peer, n := qc.Frame.TopPeer()
			return TopPeerInfo{Peer: peer, Queries: n}, nil
		},
	})
	mustRegister(Query{
		Name:  QueryTopPeerStartUpload,
		Doc:   "Fig 8: the top peer's cumulative START-UPLOAD per group",
		Needs: []string{QueryTopPeer},
		Run:   topPeerSeries(logging.KindStartUpload),
	})
	mustRegister(Query{
		Name:  QueryTopPeerRequestParts,
		Doc:   "Fig 9: the top peer's cumulative REQUEST-PART per group",
		Needs: []string{QueryTopPeer},
		Run:   topPeerSeries(logging.KindRequestPart),
	})
	mustRegister(Query{
		Name: QueryHoneypotPeerSets,
		Doc:  "Fig 10's input: distinct peer numbers observed per honeypot",
		Run: func(qc *QueryContext) (any, error) {
			sets, universe := qc.Frame.HoneypotPeerSets(qc.Meta.HoneypotIDs)
			return PeerSets{Sets: sets, Universe: universe}, nil
		},
	})
	mustRegister(Query{
		Name:  QueryHoneypotSubsets,
		Doc:   "Fig 10: union-estimate of peers seen by random honeypot subsets",
		Needs: []string{QueryHoneypotPeerSets},
		Run: func(qc *QueryContext) (any, error) {
			ps := dep[PeerSets](qc, QueryHoneypotPeerSets)
			return stats.UnionEstimate(ps.Sets, ps.Universe, stats.SubsetUnionConfig{
				Samples: qc.Opt.SubsetSamples, Seed: qc.Opt.Seed, IncludeZero: true,
			}), nil
		},
	})
	mustRegister(Query{
		Name: QueryQueriedFiles,
		Doc:  "queried files ranked by distinct querying peers",
		Run: func(qc *QueryContext) (any, error) {
			return qc.Frame.QueriedFiles(), nil
		},
	})
	mustRegister(Query{
		Name:  QueryPopularFiles,
		Doc:   "Fig 12's file set: the FileSubsetSize most-queried files",
		Needs: []string{QueryQueriedFiles},
		Run: func(qc *QueryContext) (any, error) {
			ranked := dep[[]FilePopularity](qc, QueryQueriedFiles)
			n := qc.Opt.FileSubsetSize
			if n > len(ranked) {
				n = len(ranked)
			}
			files := make([]ed2k.Hash, n)
			for i := 0; i < n; i++ {
				files[i] = ranked[i].Hash
			}
			return files, nil
		},
	})
	mustRegister(Query{
		Name: QueryRandomFiles,
		Doc:  "Fig 11's file set: FileSubsetSize files drawn from the advertised list",
		Run: func(qc *QueryContext) (any, error) {
			// Drawn from the advertised list, as the paper drew from its
			// 3,175 shared files.
			rng := rand.New(randsrc.New(qc.Opt.Seed))
			perm := rng.Perm(len(qc.Meta.Advertised))
			n := qc.Opt.FileSubsetSize
			if n > len(perm) {
				n = len(perm)
			}
			files := make([]ed2k.Hash, n)
			for i := 0; i < n; i++ {
				files[i] = qc.Meta.Advertised[perm[i]]
			}
			return files, nil
		},
	})
	mustRegister(Query{
		Name:  QueryPopularFilePeerSets,
		Doc:   "Fig 12's input: distinct peer numbers querying each popular file",
		Needs: []string{QueryPopularFiles},
		Run:   filePeerSets(QueryPopularFiles),
	})
	mustRegister(Query{
		Name:  QueryRandomFilePeerSets,
		Doc:   "Fig 11's input: distinct peer numbers querying each random file",
		Needs: []string{QueryRandomFiles},
		Run:   filePeerSets(QueryRandomFiles),
	})
	mustRegister(Query{
		Name:  QueryPopularFileSubsets,
		Doc:   "Fig 12: union-estimate of peers drawn by popular-file subsets",
		Needs: []string{QueryPopularFiles, QueryPopularFilePeerSets},
		Run:   fileSubsets(QueryPopularFiles, QueryPopularFilePeerSets),
	})
	mustRegister(Query{
		Name:  QueryRandomFileSubsets,
		Doc:   "Fig 11: union-estimate of peers drawn by random-file subsets",
		Needs: []string{QueryRandomFiles, QueryRandomFilePeerSets},
		Run:   fileSubsets(QueryRandomFiles, QueryRandomFilePeerSets),
	})
	mustRegister(Query{
		Name: QueryCoInterest,
		Doc:  "§V future work: bipartite peer-file interest graph statistics",
		Run: func(qc *QueryContext) (any, error) {
			return qc.Frame.InterestStats(), nil
		},
	})
}

func groupDistinctPeers(kind logging.Kind) func(*QueryContext) (any, error) {
	return func(qc *QueryContext) (any, error) {
		return qc.Frame.GroupDistinctPeers(qc.Meta.GroupOf, kind, qc.Meta.Start, qc.Meta.Days), nil
	}
}

func topPeerSeries(kind logging.Kind) func(*QueryContext) (any, error) {
	return func(qc *QueryContext) (any, error) {
		top := dep[TopPeerInfo](qc, QueryTopPeer)
		return qc.Frame.TopPeerSeries(qc.Meta.GroupOf, top.Peer, kind, qc.Meta.Start, qc.Meta.Days), nil
	}
}

func filePeerSets(filesQuery string) func(*QueryContext) (any, error) {
	return func(qc *QueryContext) (any, error) {
		files := dep[[]ed2k.Hash](qc, filesQuery)
		sets, universe := qc.Frame.FilePeerSets(files)
		return PeerSets{Sets: sets, Universe: universe}, nil
	}
}

func fileSubsets(filesQuery, setsQuery string) func(*QueryContext) (any, error) {
	return func(qc *QueryContext) (any, error) {
		// An empty file set yields the zero estimate, not a zero-row one:
		// the estimator does not run at all.
		if len(dep[[]ed2k.Hash](qc, filesQuery)) == 0 {
			return stats.SubsetUnion{}, nil
		}
		ps := dep[PeerSets](qc, setsQuery)
		return stats.UnionEstimate(ps.Sets, ps.Universe, stats.SubsetUnionConfig{
			Samples: qc.Opt.SubsetSamples, Seed: qc.Opt.Seed,
		}), nil
	}
}

// PaperPlan is the paper's full artifact menu for one campaign, with
// shared options: Table I, peer growth, hourly HELLO and the
// co-interest stats always; the per-group and top-peer figures plus the
// Fig 10 estimate when the fleet has several honeypots; the file-subset
// figures for the greedy campaign.
func PaperPlan(meta CampaignMeta, opt QueryOptions) Plan {
	names := []string{QueryTableI, QueryPeerGrowth, QueryHourlyHello, QueryCoInterest}
	if len(meta.HoneypotIDs) > 1 {
		names = append(names,
			QueryHelloPeersByGroup, QueryStartUploadPeersByGroup, QueryRequestPartsByGroup,
			QueryTopPeer, QueryTopPeerStartUpload, QueryTopPeerRequestParts,
			QueryHoneypotSubsets,
		)
	}
	if meta.Name == "greedy" {
		names = append(names,
			QueryQueriedFiles, QueryPopularFiles, QueryRandomFiles,
			QueryPopularFileSubsets, QueryRandomFileSubsets,
		)
	}
	return NewPlan(opt, names...)
}
