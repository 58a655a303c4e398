package scenario

import (
	"context"
	"fmt"
	"strings"
	"time"

	"peersampling/internal/chaos"
	"peersampling/internal/config"
	"peersampling/internal/core"
	"peersampling/internal/fleet"
	"peersampling/internal/load"
	"peersampling/internal/metrics"
)

// The live gateway experiment puts the light-client serving story under
// pressure: a fleet of nodes, each with its sampling gateway enabled, is
// loaded by the open-loop generator in ramping stages — hundreds of
// emulated clients, then over a thousand — while a livechurn-style kill
// wave removes a quarter of the fleet mid-ramp. The claim under test is
// that the serve path stays responsive where the fleet survives: every
// surviving gateway keeps answering with bounded tail latency and fresh
// samples while dead gateways' clients fail fast, and the per-client
// rate limit (driven through spoofed X-Forwarded-For identities against
// trust_proxy_header) never collapses distinct clients into one bucket.

// liveGatewayPlan names the fault plan the experiment replays: one 25%
// kill wave, no respawn (see internal/chaos/plans). The experiment
// starts the plan at the beginning of its marked load stage, so the
// wave lands 500ms into the stage while clients keep sampling through
// surviving gateways.
const liveGatewayPlan = "gateway-kill"

// liveGatewayParams derives the fleet's shape from a simulation Scale
// and the kill wave from the named chaos plan.
type liveGatewayParams struct {
	Nodes        int           // fleet size; every member serves a gateway
	ViewSize     int           // view capacity, capped below fleet size
	Period       time.Duration // gossip period T
	Refresh      time.Duration // gateway sample-cache refresh interval
	RateRPS      float64       // per-client token refill rate
	Burst        int           // per-client token bucket capacity
	Plan         string        // chaos plan driving the kill wave
	KillFraction float64       // fraction of the fleet killed mid-ramp (from the plan)
	Stages       []loadStage   // the pressure ramp
	// P99Budget and FreshnessBudget bound the surviving gateways' tail
	// latency and sample age for Converged. RequestTimeout caps each
	// emulated client's request.
	P99Budget       time.Duration
	FreshnessBudget time.Duration
	RequestTimeout  time.Duration
}

// loadStage is one rung of the pressure ramp.
type loadStage struct {
	Clients  int
	RPS      float64 // per client
	Duration time.Duration
	// Kill starts the chaos plan at the beginning of this stage; the
	// wave lands at the plan's own offset into it.
	Kill bool
}

func liveGatewayDerive(sc Scale, plan *chaos.Plan) liveGatewayParams {
	nodes := sc.N / 100
	if nodes < 4 {
		nodes = 4
	}
	if nodes > 10 {
		nodes = 10
	}
	view := sc.ViewSize
	if view > nodes-1 {
		view = nodes - 1
	}
	waves := plan.KillWaves()
	p := liveGatewayParams{
		Nodes:        nodes,
		ViewSize:     view,
		Period:       20 * time.Millisecond,
		Refresh:      50 * time.Millisecond,
		RateRPS:      50,
		Burst:        100,
		Plan:         plan.Name,
		KillFraction: waves[0].Fraction,
		Stages: []loadStage{
			{Clients: 250, RPS: 6, Duration: 1200 * time.Millisecond},
			{Clients: 1000, RPS: 2, Duration: 1500 * time.Millisecond, Kill: true},
		},
		P99Budget:       2 * time.Second,
		FreshnessBudget: 2 * time.Second,
		RequestTimeout:  2 * time.Second,
	}
	if raceDetectorEnabled {
		// The detector slows the serve path roughly tenfold; the claim
		// under race is still "survivors answer, zero errors", with the
		// timing budgets widened to detector-adjusted bounds.
		p.P99Budget = 8 * time.Second
		p.FreshnessBudget = 8 * time.Second
		p.RequestTimeout = 8 * time.Second
	}
	return p
}

// LiveGatewayStage reports one rung of the ramp.
type LiveGatewayStage struct {
	Clients  int
	RPS      float64
	Killed   int // members killed during this stage
	Load     *load.Result
	Survivor load.TargetStats // aggregate over gateways alive at stage end
}

// LiveGatewayResult reports the live gateway experiment.
type LiveGatewayResult struct {
	Params liveGatewayParams
	Driver string

	// BootstrapComplete counts complete views after initial bootstrap.
	BootstrapComplete int
	BootstrapTime     time.Duration
	Stages            []LiveGatewayStage
	KilledTotal       int
	// FinalLive is how many members survived the run.
	FinalLive int
}

// ID implements Result.
func (r *LiveGatewayResult) ID() string { return "livegateway" }

// Converged reports whether the serving story held: full bootstrap, and
// in every stage the surviving gateways answered (OK > 0, no transport
// errors against live targets) with tail latency and sample freshness
// inside the budgets.
func (r *LiveGatewayResult) Converged() bool {
	if r.BootstrapComplete != r.Params.Nodes {
		return false
	}
	if r.FinalLive != r.Params.Nodes-r.KilledTotal || r.KilledTotal == 0 {
		return false
	}
	for _, st := range r.Stages {
		s := st.Survivor
		if s.OK == 0 || s.Errors != 0 {
			return false
		}
		if s.Latency.Quantile(0.99) > r.Params.P99Budget.Seconds() {
			return false
		}
		if s.Freshness.Quantile(0.99) > r.Params.FreshnessBudget.Seconds() {
			return false
		}
	}
	return true
}

// Render implements Result.
func (r *LiveGatewayResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live gateway: sampling API under ramping load and a kill wave\n")
	fmt.Fprintf(&b, "fleet: %d nodes (%s driver), c=%d, T=%v, refresh=%v, limit %.0f rps burst %d per client, plan=%s\n",
		r.Params.Nodes, r.Driver, r.Params.ViewSize, r.Params.Period, r.Params.Refresh,
		r.Params.RateRPS, r.Params.Burst, r.Params.Plan)
	fmt.Fprintf(&b, "%-38s %7d/%2d\n", "complete views after bootstrap", r.BootstrapComplete, r.Params.Nodes)
	fmt.Fprintf(&b, "%-38s %10v\n", "bootstrap time", r.BootstrapTime.Round(time.Millisecond))
	for i, st := range r.Stages {
		s := st.Survivor
		fmt.Fprintf(&b, "stage %d: %d clients × %.3g rps, killed %d: survivors ok=%d 429=%d 503=%d err=%d p50=%.1fms p99=%.1fms fresh_p99=%.0fms\n",
			i+1, st.Clients, st.RPS, st.Killed,
			s.OK, s.RateLimited, s.Unavailable, s.Errors,
			s.Latency.Quantile(0.50)*1000, s.Latency.Quantile(0.99)*1000,
			s.Freshness.Quantile(0.99)*1000)
	}
	fmt.Fprintf(&b, "%-38s %10d\n", "members killed in total", r.KilledTotal)
	fmt.Fprintf(&b, "%-38s %7d/%2d\n", "members alive at the end", r.FinalLive, r.Params.Nodes)
	fmt.Fprintf(&b, "served through the kill wave: %v\n", r.Converged())
	return b.String()
}

// CSV implements CSVer: target,cycle,metric,value with one cycle per
// ramp stage — the load generator's long-form schema, so a livegateway
// run plots with the same tooling as a psload run.
func (r *LiveGatewayResult) CSV() map[string]string {
	var rows []metrics.LongRow
	for i, st := range r.Stages {
		rows = append(rows, st.Load.Rows(i)...)
	}
	return map[string]string{"livegateway_load": metrics.LongCSV("target", rows)}
}

// RunLiveGateway boots a gateway-enabled fleet on env's driver, ramps
// the load generator through the parameter stages, and replays the
// gateway-kill chaos plan from the start of the marked stage — a hard
// kill wave (seeded victim choice, no goodbye) landing at the plan's
// offset into it. Stats are tallied per gateway, and each stage's
// verdict reads only the gateways still alive when the stage ends — a
// killed gateway's connection errors are the expected cost of churn,
// not a serving failure.
func RunLiveGateway(sc Scale, seed uint64, env LiveEnv) (*LiveGatewayResult, error) {
	plan, err := chaos.Load(liveGatewayPlan)
	if err != nil {
		return nil, err
	}
	p := liveGatewayDerive(sc, plan)
	res := &LiveGatewayResult{Params: p, Driver: env.DriverName()}

	cluster, err := env.cluster(fleet.Config{
		Protocol: core.Newscast,
		ViewSize: p.ViewSize,
		Period:   p.Period,
		Backend:  "tcp",
		Gateway: config.GatewaySection{
			Addr:             "127.0.0.1:0",
			Refresh:          p.Refresh,
			RateRPS:          p.RateRPS,
			Burst:            p.Burst,
			TrustProxyHeader: true,
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	members, err := spawnLinear(cluster, p.Nodes)
	if err != nil {
		return nil, err
	}
	phaseTimeout := 30*p.Period*time.Duration(p.Nodes) + 5*time.Second
	res.BootstrapComplete, res.BootstrapTime = waitCompleteViews(members, p.Period, phaseTimeout)

	gatewayOf := make(map[string]fleet.Member, len(members))
	for _, m := range members {
		addr := m.GatewayAddr()
		if addr == "" {
			return nil, fmt.Errorf("scenario: member %s has no gateway", m.Name())
		}
		gatewayOf[addr] = m
	}

	ex := chaos.New(plan, cluster, members, chaos.Options{Seed: mix(seed, 0x6A7E)})
	defer ex.Close()

	for _, stage := range p.Stages {
		report := LiveGatewayStage{Clients: stage.Clients, RPS: stage.RPS}

		// The stage targets every gateway alive at its start; a member
		// killed mid-stage keeps taking (and failing) its share of load,
		// exactly like clients holding a stale endpoint list.
		var targets []string
		for addr, m := range gatewayOf {
			if m.Alive() {
				targets = append(targets, addr)
			}
		}
		if len(targets) == 0 {
			return nil, fmt.Errorf("scenario: no live gateways left before stage")
		}

		// The marked stage runs the chaos plan on its own clock alongside
		// the load: Run sleeps out the plan's offsets, so the wave lands
		// mid-stage while clients keep hammering every gateway.
		type killReport struct {
			killed int
			err    error
		}
		killDone := make(chan killReport, 1)
		if stage.Kill {
			go func() {
				before := ex.KilledTotal()
				err := ex.Run(context.Background())
				killDone <- killReport{killed: ex.KilledTotal() - before, err: err}
			}()
		} else {
			killDone <- killReport{}
		}

		lr, err := load.Run(context.Background(), load.Config{
			Targets:      targets,
			Clients:      stage.Clients,
			RPS:          stage.RPS,
			Duration:     stage.Duration,
			N:            3,
			SpoofClients: true,
			Timeout:      p.RequestTimeout,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: livegateway load: %w", err)
		}
		kr := <-killDone
		if kr.err != nil {
			return nil, fmt.Errorf("scenario: livegateway chaos plan: %w", kr.err)
		}
		report.Killed = kr.killed
		res.KilledTotal += kr.killed
		report.Load = lr

		// The stage verdict reads survivors only.
		report.Survivor = load.TargetStats{Target: "survivors"}
		for _, t := range lr.Targets {
			if !gatewayOf[t.Target].Alive() {
				continue
			}
			report.Survivor.OK += t.OK
			report.Survivor.RateLimited += t.RateLimited
			report.Survivor.Unavailable += t.Unavailable
			report.Survivor.BadStatus += t.BadStatus
			report.Survivor.Errors += t.Errors
			report.Survivor.Dropped += t.Dropped
			report.Survivor.Latency.Add(t.Latency)
			report.Survivor.Freshness.Add(t.Freshness)
			if t.LatencyMaxSeconds > report.Survivor.LatencyMaxSeconds {
				report.Survivor.LatencyMaxSeconds = t.LatencyMaxSeconds
			}
		}
		res.Stages = append(res.Stages, report)
	}

	for _, m := range members {
		if m.Alive() {
			res.FinalLive++
		}
	}
	return res, nil
}
