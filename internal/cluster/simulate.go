package cluster

import (
	"sort"
	"time"

	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/stats"
	"ceci/internal/workload"
)

// Simulation is the modeled-time version of a distributed run: the CECI
// build and each embedding cluster's enumeration are measured serially
// once (so host core count does not distort the numbers), after which
// any machine-count/mode configuration can be replayed through a
// discrete-event simulation of the distributed schedule — including
// pivot partitioning, work stealing, and IO/communication charges. This
// is what the Figure 16/17 speedup curves and the Figure 20 build-cost
// breakdown are generated from. Its embedding counts are checked
// against the reference matcher in the package tests.
type Simulation struct {
	data        *graph.Graph
	pivots      []graph.VertexID
	clusterCost map[graph.VertexID]time.Duration
	clusterEmb  map[graph.VertexID]int64

	buildCompute time.Duration // serial build of the full index
	remoteReads  int64         // adjacency fetches during that build
	total        int64         // total embeddings
}

// NewSimulation measures the workload once: one serial index build plus
// one serial enumeration per embedding cluster.
func NewSimulation(data, query *graph.Graph) (*Simulation, error) {
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		data:        data,
		clusterCost: make(map[graph.VertexID]time.Duration),
		clusterEmb:  make(map[graph.VertexID]int64),
	}
	st := &stats.Counters{}
	start := time.Now()
	ix := ceci.Build(data, tree, ceci.Options{Workers: 1, Stats: st})
	s.buildCompute = time.Since(start)
	s.remoteReads = st.RemoteReads.Load()
	s.pivots = append(s.pivots, ix.Pivots()...)

	// Per-cluster measured costs: one searcher reused across clusters.
	m := enum.NewMatcher(ix, enum.Options{Workers: 1, Strategy: workload.CGD})
	for _, c := range m.MeasureUnits() {
		pivot := c.Unit.Prefix[0]
		s.clusterCost[pivot] = c.Duration
		s.clusterEmb[pivot] = c.Embeddings
		s.total += c.Embeddings
	}
	return s, nil
}

// Embeddings returns the measured total embedding count.
func (s *Simulation) Embeddings() int64 { return s.total }

// Run replays the distributed schedule for one configuration.
func (s *Simulation) Run(cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	parts := distributePivots(s.data, s.pivots, cfg)
	res := &Result{Machines: make([]Ledger, cfg.Machines)}

	type clusterCost struct {
		pivot graph.VertexID
		cost  time.Duration
		embs  int64
	}
	queues := make([][]clusterCost, cfg.Machines)
	totalPivots := len(s.pivots)
	for i, part := range parts {
		led := &res.Machines[i]
		led.Pivots = len(part)
		led.Comm += cfg.MessageLatency +
			time.Duration(float64(len(part)*4)/cfg.BytesPerSecond*float64(time.Second))
		if len(part) == 0 {
			continue
		}
		// Each machine builds a CECI restricted to its pivot share; the
		// frontier work — and hence compute and remote reads — scales
		// with that share (the paper's light-weight balancing targets
		// exactly this proportionality).
		share := float64(len(part)) / float64(totalPivots)
		led.BuildCompute = time.Duration(share * float64(s.buildCompute))
		led.RemoteReads = int64(share * float64(s.remoteReads))
		switch cfg.Mode {
		case SharedStorage:
			led.BuildIO = time.Duration(led.RemoteReads) * cfg.RemoteReadLatency
		case Replicated:
			led.BuildIO = time.Duration(float64(s.data.BytesEstimate()) /
				cfg.BytesPerSecond * float64(time.Second))
		}
		for _, p := range part {
			queues[i] = append(queues[i], clusterCost{p, s.clusterCost[p], s.clusterEmb[p]})
		}
		// Big clusters first, as the real work pool orders them.
		sort.Slice(queues[i], func(a, b int) bool {
			return queues[i][a].cost > queues[i][b].cost
		})
	}

	// Discrete-event replay with work stealing. A machine with W workers
	// is modeled as a server of speed W (per-cluster FGD decomposition
	// makes clusters divisible in the real system, so the fluid
	// approximation is close).
	speed := float64(cfg.WorkersPerMachine)
	clock := make([]time.Duration, cfg.Machines)
	enumTime := make([]time.Duration, cfg.Machines)
	for i := range clock {
		clock[i] = res.Machines[i].BuildCompute + res.Machines[i].BuildIO + res.Machines[i].Comm
	}
	active := cfg.Machines
	done := make([]bool, cfg.Machines)
	for active > 0 {
		m := -1
		for i := 0; i < cfg.Machines; i++ {
			if !done[i] && (m < 0 || clock[i] < clock[m]) {
				m = i
			}
		}
		if len(queues[m]) > 0 {
			c := queues[m][0]
			queues[m] = queues[m][1:]
			d := time.Duration(float64(c.cost) / speed)
			clock[m] += d
			enumTime[m] += d
			res.Machines[m].Embeddings += c.embs
			continue
		}
		// Steal from the victim with the most unexplored clusters.
		victim, best := -1, 0
		for i := 0; i < cfg.Machines; i++ {
			if i != m && len(queues[i]) > best {
				victim, best = i, len(queues[i])
			}
		}
		if victim < 0 {
			done[m] = true
			active--
			continue
		}
		c := queues[victim][0]
		queues[victim] = queues[victim][1:]
		res.Machines[m].Stolen++
		res.Steals++
		d := time.Duration(float64(c.cost) / speed)
		clock[m] += cfg.MessageLatency + d
		enumTime[m] += d
		res.Machines[m].Embeddings += c.embs
		res.Machines[m].Comm += cfg.MessageLatency
	}
	for i := range res.Machines {
		res.Machines[i].Enumerate = enumTime[i]
		if t := res.Machines[i].Total(); t > res.Makespan {
			res.Makespan = t
		}
	}
	res.Embeddings = s.total
	return res, nil
}

// Simulate is the one-shot convenience: measure then replay one
// configuration. Prefer NewSimulation + Run when sweeping machine
// counts — the measurement is by far the expensive part.
func Simulate(data, query *graph.Graph, cfg Config) (*Result, error) {
	sim, err := NewSimulation(data, query)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg)
}
