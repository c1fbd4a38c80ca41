package core

// This file is the process-boundary seam of the sharded simulation engine
// (DESIGN.md §15). SimulatePopulation decomposes a campaign into a fixed
// set of private sub-simulations and merges them in shard order
// (simshard.go); ShardCampaign exposes exactly that decomposition so the
// two halves can run in different processes — or on different machines —
// connected by nothing but checkpoint envelopes:
//
//   - a worker opens the campaign from the same Config, executes one shard,
//     and serializes the result as the self-validating checkpoint envelope
//     of DESIGN.md §13 (RunShardEnvelope);
//   - a coordinator opens the campaign from the same Config, validates and
//     records envelopes as they arrive (LoadEnvelope), and folds the
//     completed set through the identical ordered merge (Merge).
//
// Because the decomposition is a pure function of the Config and the
// envelope carries every field mergeSimShards folds, the merged dataset is
// byte-identical to a single-process run — the distributed fabric
// (internal/fabric) is "just" a transport for these envelopes, and every
// failure mode (worker death, duplicate delivery, corruption in flight)
// degrades to "rerun shard", exactly as local checkpoint corruption does.

import (
	"errors"
	"fmt"
	"sync"

	"openresolver/internal/analysis"
	"openresolver/internal/geo"
	"openresolver/internal/ipv4"
	"openresolver/internal/obs"
	"openresolver/internal/population"
	"openresolver/internal/scan"
	"openresolver/internal/threatintel"
)

// ErrShardRecorded reports an envelope for a shard that already has a
// recorded run — a duplicate RESULT, a late delivery after a lease expired
// and another worker finished first, or a shard restored from a local
// checkpoint. The duplicate is dropped, never merged twice.
var ErrShardRecorded = errors.New("core: shard already recorded")

// ShardCampaign is one simulated campaign opened at its shard seams: the
// compiled environment every shard shares, the fixed shard plan, and the
// per-shard run slots the ordered merge folds. It is the engine behind
// SimulatePopulation and the unit of work the distributed fabric moves
// between processes.
type ShardCampaign struct {
	cfg       Config
	env       *simEnv
	shards    []simShard
	obsShards []*obs.Shard
	accCfg    analysis.Config
	key       string
	store     *checkpointStore

	// mu guards runs against concurrent LoadEnvelope calls (duplicate or
	// racing RESULTs). The local execution path in SimulatePopulation
	// writes disjoint indexes from its own workers and does not take it.
	mu   sync.Mutex
	runs []*simShardRun
}

// OpenShardCampaign compiles cfg's campaign to its shard seams: builds the
// population, threat feed and scan universe, plans the fixed shard
// decomposition, and — when cfg.Checkpoints is configured — restores every
// shard with a valid checkpoint. Both fabric roles open the campaign this
// way; the campaign key proves they agree on every byte-shaping input.
func OpenShardCampaign(cfg Config) (*ShardCampaign, error) {
	pop, feed, err := buildDeps(cfg)
	if err != nil {
		return nil, err
	}
	return openSimCampaign(cfg, pop, feed.DB)
}

// openSimCampaign is the shared opening path of SimulatePopulation and
// OpenShardCampaign: the read-only simEnv (universe, assigner walk, cohort
// index), the shard plan, the obs shards registered in shard order, and
// the checkpoint restore pass.
func openSimCampaign(cfg Config, pop *population.Population, threat *threatintel.DB) (*ShardCampaign, error) {
	if cfg.SampleShift < 6 {
		return nil, fmt.Errorf("core: simulation mode needs SampleShift ≥ 6 (got %d); use RunSynthetic for full scale", cfg.SampleShift)
	}
	tr := cfg.Obs.Tracer()
	sp := tr.Begin("scan-universe")
	reg := geo.DefaultRegistry()
	u, err := scan.NewUniverse(uint64(cfg.Seed), cfg.SampleShift, ipv4.NewReservedBlocklist())
	if err != nil {
		return nil, err
	}
	assigner, err := population.NewAssigner(u, reg, pop, ProberAddr, RootAddr, TLDAddr, AuthAddr)
	if err != nil {
		return nil, err
	}
	tr.End(sp)

	// The resolver population's address plan. The assigner walk — and with
	// it every address draw — is identical to the old eager construction,
	// but only a cohort index is recorded per address; the Resolver host
	// itself (and its recursion engine) materializes inside the shard that
	// first reaches the address, via each sub-simulation's spawner hook.
	// Addresses the campaign never reaches (skipped sends, lost probes) are
	// never built. The index is written once here and only read during the
	// fan-out, so every shard shares it without synchronization.
	sp = tr.Begin("population-place")
	cohortOf := newAddrIndex(int(pop.ExpectedR2))
	for ci, cohort := range pop.Cohorts {
		for i := uint64(0); i < cohort.Count; i++ {
			src, err := assigner.Next(cohort.Country)
			if err != nil {
				return nil, err
			}
			cohortOf.put(src, int32(ci))
		}
	}
	tr.End(sp)

	shards := planSimShards(cfg, u)
	// Metrics shards are registered here, in shard order, so the snapshot's
	// shard list is deterministic regardless of goroutine scheduling.
	obsShards := make([]*obs.Shard, len(shards))
	for i := range shards {
		obsShards[i] = cfg.Obs.NewShard(fmt.Sprintf("sim-%d", i))
	}
	sc := &ShardCampaign{
		cfg:       cfg,
		env:       &simEnv{cfg: cfg, pop: pop, threat: threat, reg: reg, u: u, cohortOf: cohortOf},
		shards:    shards,
		obsShards: obsShards,
		accCfg:    analysis.Config{Year: cfg.Year, Threat: threat, Geo: reg},
		key:       checkpointCampaignKey(cfg, shards),
		runs:      make([]*simShardRun, len(shards)),
	}

	// Checkpoint/restore (DESIGN.md §13): restore every shard with a valid
	// checkpoint from a previous run of the same campaign; only the rest
	// execute. Restored runs carry exactly the fields mergeSimShards folds,
	// so the merged dataset is byte-identical to an uninterrupted run's.
	if cfg.Checkpoints.enabled() {
		store, err := openCheckpointStore(cfg.Checkpoints, cfg, shards)
		if err != nil {
			return nil, err
		}
		sc.store = store
		sp = tr.Begin("checkpoint-restore")
		for i := range shards {
			if run, ok := store.load(i, sc.accCfg, obsShards[i]); ok {
				sc.runs[i] = run
			}
		}
		tr.End(sp)
	}
	return sc, nil
}

// NumShards returns the campaign's fixed shard count — a pure function of
// the Config, never of Workers or the host.
func (sc *ShardCampaign) NumShards() int { return len(sc.shards) }

// CampaignKey returns the campaign's identity digest: the configuration
// scalars, the canonical fault-plan description, and the complete shard
// plan (checkpointCampaignKey). Two processes that derive the same key
// from their own flags provably agree on every input that shapes the
// campaign's bytes; the fabric protocol refuses to pair processes whose
// keys differ.
func (sc *ShardCampaign) CampaignKey() string { return sc.key }

// Pending returns the ascending indexes of shards without a recorded run —
// the work a coordinator hands out as leases. Shards restored from
// checkpoints are already recorded and never leave the process again.
func (sc *ShardCampaign) Pending() []int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var idx []int
	for i, run := range sc.runs {
		if run == nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// Recorded reports whether shard i already has a recorded run.
func (sc *ShardCampaign) Recorded(i int) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return i >= 0 && i < len(sc.runs) && sc.runs[i] != nil
}

// RunShardEnvelope executes shard i on a fully private discrete-event
// network and returns its checkpoint envelope — the worker half of the
// fabric. The run is not recorded locally: its observability state rides
// inside the envelope (on a free-standing shard, not the campaign's
// registry) and is folded in exactly once by whichever process records
// the envelope, so metrics are neither lost nor double-counted.
func (sc *ShardCampaign) RunShardEnvelope(i int) ([]byte, error) {
	if i < 0 || i >= len(sc.shards) {
		return nil, fmt.Errorf("core: campaign has no shard %d (plan has %d)", i, len(sc.shards))
	}
	run, err := runSimShard(sc.env, sc.shards[i], obs.NewShard(fmt.Sprintf("sim-%d", i)))
	if err != nil {
		return nil, err
	}
	return marshalShardEnvelope(sc.key, i, run)
}

// LoadEnvelope validates envelope bytes for shard i and records the
// restored run — the coordinator half of the fabric. Validation is the
// same layered check the checkpoint store applies to files it reads back
// (version, campaign key, shard index, payload digest), so a corrupted or
// mismatched envelope is rejected before any state is touched and the
// shard simply reruns. A second envelope for an already-recorded shard
// returns ErrShardRecorded and changes nothing — the at-most-once merge
// guarantee. When the campaign checkpoints, accepted envelopes are also
// persisted verbatim, making a distributed campaign resumable from the
// coordinator's disk alone.
func (sc *ShardCampaign) LoadEnvelope(i int, data []byte) error {
	if i < 0 || i >= len(sc.shards) {
		return fmt.Errorf("core: campaign has no shard %d (plan has %d)", i, len(sc.shards))
	}
	ck, err := validateShardEnvelope(sc.key, i, data)
	if err != nil {
		return err
	}
	sc.mu.Lock()
	if sc.runs[i] != nil {
		sc.mu.Unlock()
		return ErrShardRecorded
	}
	// Record under the lock: obs state loads exactly once per shard even
	// when duplicate RESULTs race.
	sc.runs[i] = restoreShardRun(sc.accCfg, ck, sc.obsShards[i])
	sc.mu.Unlock()
	if sc.store != nil {
		sc.store.writeRaw(i, data)
	}
	return nil
}

// Merge folds the recorded shards, in shard order, into the campaign's
// Dataset — the same mergeSimShards discipline SimulatePopulation applies,
// so a campaign assembled from remote envelopes is byte-identical to one
// run in-process. Every shard must be recorded; checkpoint files are
// cleared on success exactly as a local campaign clears them.
func (sc *ShardCampaign) Merge() (*Dataset, error) {
	for i, run := range sc.runs {
		if run == nil {
			return nil, fmt.Errorf("core: cannot merge: shard %d has no recorded run", i)
		}
	}
	ds := mergeSimShards(sc.cfg, sc.env.pop, sc.runs)
	if sc.store != nil {
		sc.store.clear(len(sc.shards))
	}
	return ds, nil
}

// Threat returns the campaign's threat database — the seam drift-style
// callers need to cross-check a merged dataset.
func (sc *ShardCampaign) Threat() *threatintel.DB { return sc.env.threat }
