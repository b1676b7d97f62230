package conformance

import (
	"context"
	"fmt"
	"math"
	"sync"

	"leakest/internal/charlib"
	"leakest/internal/chipmc"
	"leakest/internal/netlist"
	"leakest/internal/placement"
	"leakest/internal/spatial"
	"leakest/internal/stats"
)

// The qmc stage proves three things about the scrambled-Sobol sampler on
// one smooth seeded fixture:
//
//  1. Unbiasedness — the qmc moments agree with a frozen pseudo-random
//     dense referee within z·SE.
//  2. Acceleration — the RMSE of the qmc mean (measured as the spread over
//     scramble replicates; the estimator is unbiased, so replicate SD ≈
//     RMSE) at qmcEqualTrials trials must not exceed the plain-MC standard
//     error at qmcBaseTrials trials — a ≥5× trial reduction to equal SE —
//     and the log-log SE-vs-N slope must be materially steeper than the
//     −1/2 of pseudo-random sampling.
//  3. Non-interference — the dense and FFT referee runs on this fixture are
//     frozen in testdata/golden.json, so any change that perturbs the
//     pseudo-random paths while wiring in qmc fails the golden gate.
//
// The self-check proves the stage has teeth by degrading the Sobol stream
// (unscrambled, pseudo-random) and requiring each degraded run to fail.

const (
	// qmcFixtureName labels every check of the suite.
	qmcFixtureName = "qmc-fig6"
	// qmcGates is the fixture size: a 6×6 die, small enough that the dense
	// qmc path runs fully low-discrepancy (the D2D deviate plus 36
	// within-die normals: 1 + 36 = 37 = randvar.SobolMaxDims).
	qmcGates = 36
	// qmcRefTrials sizes the frozen pseudo-random referee runs.
	qmcRefTrials = 4000
	// qmcBaseTrials is the plain-MC baseline trial count whose standard
	// error qmc must reach with qmcEqualTrials trials — the repo's default
	// sample count, making the gate the paper-facing claim "the default MC
	// budget shrinks ≥5×".
	qmcBaseTrials  = 2000
	qmcEqualTrials = 400
	// qmcReplicates is the number of independently scrambled replicates
	// behind each RMSE measurement. Eight keeps the replicate-SD noise
	// (~25 % relative, χ²₇) well below the gate margins at the default
	// seed while the whole sweep stays a sub-second workload.
	qmcReplicates = 8
	// qmcSlopeBound is the one-sided convergence-slope gate: scrambled
	// Sobol on the smooth fixture must beat −0.7 where pseudo-random
	// sampling is pinned at −1/2. The gap to −0.5 is ≈2× the replicate-
	// induced slope noise, so the gate neither flakes nor forgives.
	qmcSlopeBound = -0.7
	// qmcSlopeGap is how much steeper the qmc slope must be than the
	// measured pseudo-random slope of the same fixture and seeds.
	qmcSlopeGap = 0.15
)

// qmcSlopeTrials are the trial counts of the convergence sweep, log-spaced
// by 4× so the slope fit spans more than a decade.
var qmcSlopeTrials = []int{128, 512, 2048}

// qmcFixture builds the smooth Fig. 6-style fixture the suite runs on: a
// 6×6 random inverter circuit at signal probability 1 (one reachable state
// per gate, so a trial consumes no state-draw randomness and the chip
// total is a smooth function of the channel-length field alone) under a
// D2D-heavy 90/10 sigma split with a tight correlation kernel. The fixture
// is always built at DefaultSeed so the frozen referee goldens stay valid
// at any harness seed; cfg.Seed varies only the trial streams.
func qmcFixture(lib *charlib.Library) (*spatial.Process, *netlist.Netlist, *placement.Placement, error) {
	base := spatial.Default90nm()
	tot := base.TotalSigma()
	proc := &spatial.Process{
		LNominal: base.LNominal,
		SigmaD2D: tot * math.Sqrt(0.9),
		SigmaWID: tot * math.Sqrt(0.1),
		SigmaVt:  base.SigmaVt,
		WIDCorr:  spatial.TruncatedExpCorr{Lambda: 6, R: 24},
	}
	hist, err := stats.NewHistogram(map[string]float64{"INV_X1": 1})
	if err != nil {
		return nil, nil, nil, err
	}
	nl, pl, err := placedCircuit(lib, DefaultSeed, qmcFixtureName, "conf-qmc", qmcGates, 8, hist, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	return proc, nl, pl, nil
}

// refereeKey is the whole input of one qmc referee run.
type refereeKey struct {
	lib     *charlib.Library
	workers int
	sampler chipmc.Sampler
}

// referees holds each finished referee run for the life of the process.
// The golden stage, the qmc stage and both qmc-seq self-check runs read the
// same two referees, and no Mutation is among a referee's inputs, so no
// run of the registry — mutated or not — can change what it computes.
var referees struct {
	sync.Mutex
	res map[refereeKey]chipmc.Result
}

// qmcReferee runs one frozen pseudo-random referee on the qmc fixture —
// always at DefaultSeed and qmcRefTrials, because its moments are frozen
// in testdata/golden.json — once per process and input.
func qmcReferee(ctx context.Context, lib *charlib.Library, workers int, sampler chipmc.Sampler) (chipmc.Result, error) {
	key := refereeKey{lib, workers, sampler}
	referees.Lock()
	defer referees.Unlock()
	if res, ok := referees.res[key]; ok {
		return res, nil
	}
	proc, nl, pl, err := qmcFixture(lib)
	if err != nil {
		return chipmc.Result{}, err
	}
	res, err := chipmc.RunContext(ctx, chipmc.Config{
		Lib: lib, Proc: proc, SignalProb: 1, Samples: qmcRefTrials,
		Seed: DefaultSeed, Workers: workers, MaxGates: qmcGates, Sampler: sampler,
	}, nl, pl)
	if err != nil {
		return chipmc.Result{}, err
	}
	if referees.res == nil {
		referees.res = make(map[refereeKey]chipmc.Result)
	}
	referees.res[key] = res
	return res, nil
}

// qmcGoldenEntries freezes the dense and FFT referee moments on the qmc
// fixture. They ride in testdata/golden.json next to the E1–E6 shapes, so
// the qmc wiring cannot silently perturb either pseudo-random sampler:
// a bitwise change shows up as golden drift, here and in the full harness.
func qmcGoldenEntries(ctx context.Context, lib *charlib.Library, workers int) ([]GoldenEntry, error) {
	var out []GoldenEntry
	for _, s := range []chipmc.Sampler{chipmc.SamplerDense, chipmc.SamplerFFT} {
		res, err := qmcReferee(ctx, lib, workers, s)
		if err != nil {
			return nil, err
		}
		name := "qmc." + s.String() + "_ref"
		note := fmt.Sprintf("%s-sampler referee on the qmc fixture, %d trials — frozen so the qmc path cannot perturb it", s, qmcRefTrials)
		out = append(out,
			GoldenEntry{Name: name + "_mean", Value: res.Mean, Tol: goldenTol, Note: note},
			GoldenEntry{Name: name + "_std", Value: res.Std, Tol: goldenTol, Note: note},
		)
	}
	return out, nil
}

func (h *harness) runQMC(ctx context.Context) error {
	const fx = qmcFixtureName
	proc, nl, pl, err := qmcFixture(h.lib)
	if err != nil {
		return err
	}
	// The mutation hook: a qmc-seq target threads its degrade mode into
	// every qmc run below, leaving the pseudo-random referees untouched.
	degrade := ""
	if mu := h.cfg.Mutation; mu != nil && mu.Target == "qmc-seq" {
		degrade = mu.Moment
	}

	// --- frozen referees: dense and fft stay bitwise unchanged ----------
	denseRef, err := qmcReferee(ctx, h.lib, h.cfg.Workers, chipmc.SamplerDense)
	if err != nil {
		return err
	}
	fftRef, err := qmcReferee(ctx, h.lib, h.cfg.Workers, chipmc.SamplerFFT)
	if err != nil {
		return err
	}
	frozen, err := FrozenGolden()
	if err != nil {
		return err
	}
	frozenByName := make(map[string]GoldenEntry, len(frozen))
	for _, e := range frozen {
		frozenByName[e.Name] = e
	}
	for _, ref := range []struct {
		name string
		res  chipmc.Result
	}{{"qmc.dense_ref", denseRef}, {"qmc.fft_ref", fftRef}} {
		for _, m := range []struct {
			suffix string
			got    float64
		}{{"_mean", ref.res.Mean}, {"_std", ref.res.Std}} {
			name := ref.name + m.suffix
			fz, ok := frozenByName[name]
			if !ok {
				h.checkBehavior(fx, "golden/"+name, false,
					"referee moment not frozen — regenerate with `go generate ./internal/conformance`")
				continue
			}
			h.check(fx, "golden/"+name, KindGolden, m.got, fz.Value, fz.Tol, fz.Note)
		}
	}
	// The two pseudo-random samplers are independent constructions of the
	// same field law; their moments must agree within combined z·SE.
	h.check(fx, "qmc/fft-ref-vs-dense-ref-mean", KindStatistical, fftRef.Mean, denseRef.Mean,
		Tolerance{Abs: mcZ * math.Hypot(denseRef.MeanSE(), fftRef.MeanSE())},
		fmt.Sprintf("independent referee samplers, %d trials each", qmcRefTrials))
	h.check(fx, "qmc/fft-ref-vs-dense-ref-std", KindStatistical, fftRef.Std, denseRef.Std,
		Tolerance{Abs: mcZ * math.Hypot(stats.StdSE(denseRef.Std, denseRef.Samples), stats.StdSE(fftRef.Std, fftRef.Samples))},
		"")

	// --- scramble-replicate sweeps --------------------------------------
	// runRep runs the qmc sampler with replicate r's derived seed: the
	// scramble (and every per-trial stream) is keyed off the run seed, so
	// distinct replicates are independently scrambled copies of the same
	// low-discrepancy estimator.
	runRep := func(trials, r int, deg string) (chipmc.Result, error) {
		seeds := stats.NewStream(h.cfg.Seed, fmt.Sprintf("conformance/qmc/n%d/rep#", trials))
		return chipmc.RunContext(ctx, chipmc.Config{
			Lib: h.lib, Proc: proc, SignalProb: 1, Samples: trials,
			Seed: seeds.SeedFor(r), Workers: h.cfg.Workers, MaxGates: qmcGates,
			Sampler: chipmc.SamplerQMC, QMCDegrade: deg,
		}, nl, pl)
	}
	// sweep returns the replicate means and their SD at one trial count.
	sweep := func(trials int, deg string) (sd float64, means []float64, err error) {
		means = make([]float64, qmcReplicates)
		for r := range means {
			res, err := runRep(trials, r, deg)
			if err != nil {
				return 0, nil, err
			}
			means[r] = res.Mean
		}
		return stats.StdDev(means), means, nil
	}

	qmcSD := make([]float64, len(qmcSlopeTrials))
	spreadOK := true
	var means128 []float64
	for i, n := range qmcSlopeTrials {
		sd, means, err := sweep(n, degrade)
		if err != nil {
			return err
		}
		qmcSD[i] = sd
		if sd <= 0 || math.IsNaN(sd) {
			spreadOK = false
		}
		if i == 0 {
			means128 = means
		}
	}
	// The comparison baseline: the same replicate seeds driven through the
	// counter-based pseudo-random degrade mode — plain MC with the qmc
	// plumbing, so the slope comparison isolates the sequence itself.
	pseudoSD := make([]float64, len(qmcSlopeTrials))
	for i, n := range qmcSlopeTrials {
		sd, _, err := sweep(n, "pseudo")
		if err != nil {
			return err
		}
		pseudoSD[i] = sd
	}

	// --- the statistical gates ------------------------------------------
	// Zero spread across scramble replicates means the scramble is inert —
	// the unscrambled-degrade failure mode — and would trivially satisfy
	// every ≤-shaped SE gate below, so it is rejected outright.
	h.checkBehavior(fx, "qmc/scramble-spread-positive", spreadOK,
		"replicate SD must be positive at every N: zero spread means scrambling is inert")

	// Unbiasedness: the largest-N qmc run against the dense referee. Its
	// error bar is the measured replicate SD; the referee adds its own SE.
	bigN := qmcSlopeTrials[len(qmcSlopeTrials)-1]
	big, err := runRep(bigN, 0, degrade)
	if err != nil {
		return err
	}
	meanTol := mcZ * math.Hypot(denseRef.MeanSE(), qmcSD[len(qmcSD)-1])
	h.check(fx, "qmc/mean-vs-dense-referee", KindStatistical, big.Mean, denseRef.Mean,
		Tolerance{Abs: meanTol},
		fmt.Sprintf("qmc at %d trials vs the %d-trial dense referee; tolerance %g·(referee SE ⊕ replicate SD)", bigN, qmcRefTrials, mcZ))
	stdTol := mcZ * math.Hypot(stats.StdSE(denseRef.Std, denseRef.Samples), stats.StdSE(denseRef.Std, bigN))
	h.check(fx, "qmc/std-vs-dense-referee", KindStatistical, big.Std, denseRef.Std,
		Tolerance{Abs: stdTol},
		"σ agreement; the pseudo-random SE at the qmc trial count bounds the qmc σ error conservatively")

	// Equal-SE trial ratio: the qmc RMSE at qmcEqualTrials must not exceed
	// the plain-MC standard error at qmcBaseTrials — reaching the default
	// MC budget's precision with 5× fewer trials. Reported as a ratio so
	// the margin is the acceleration headroom itself.
	sdEqual, _, err := sweep(qmcEqualTrials, degrade)
	if err != nil {
		return err
	}
	baseSE := denseRef.Std / math.Sqrt(float64(qmcBaseTrials))
	h.check(fx, "qmc/equal-se-trial-ratio", KindStatistical, sdEqual/baseSE, 0,
		Tolerance{Abs: 1},
		fmt.Sprintf("RMSE over %d scramble replicates at %d trials ÷ plain-MC SE at %d trials; ≤1 proves a ≥%d× trial reduction",
			qmcReplicates, qmcEqualTrials, qmcBaseTrials, qmcBaseTrials/qmcEqualTrials))

	// Convergence slope: fit ln SD against ln N. Scrambled Sobol must beat
	// qmcSlopeBound outright and beat the measured pseudo-random slope of
	// the same fixture and seeds by qmcSlopeGap. NaN slopes (degenerate
	// spreads) fail both inequalities.
	xs := make([]float64, len(qmcSlopeTrials))
	for i, n := range qmcSlopeTrials {
		xs[i] = float64(n)
	}
	slopeQ := stats.SlopeLogLog(xs, qmcSD)
	slopeP := stats.SlopeLogLog(xs, pseudoSD)
	h.checkBehavior(fx, "qmc/convergence-slope", slopeQ <= qmcSlopeBound,
		fmt.Sprintf("log-log SE slope %.3f over N=%v must be ≤ %.2f (plain MC converges at −0.5)",
			slopeQ, qmcSlopeTrials, qmcSlopeBound))
	h.checkBehavior(fx, "qmc/slope-beats-pseudo", slopeQ <= slopeP-qmcSlopeGap,
		fmt.Sprintf("qmc slope %.3f must be ≥%.2f steeper than the pseudo-random slope %.3f of the same seeds",
			slopeQ, qmcSlopeGap, slopeP))
	h.checkBehavior(fx, "qmc/pseudo-slope-sanity", !math.IsNaN(slopeP) && slopeP <= -0.2 && slopeP >= -0.8,
		fmt.Sprintf("pseudo-random comparison slope %.3f must sit near −0.5 for the gap gate to mean anything", slopeP))

	// Scramble variation and reproducibility: distinct replicate seeds
	// must move the estimate (an inert scramble is the unscrambled-degrade
	// bug shape), and re-running a replicate must reproduce it bitwise.
	varied := false
	for _, m := range means128[1:] {
		if m != means128[0] {
			varied = true
			break
		}
	}
	h.checkBehavior(fx, "qmc/scramble-variation", varied,
		"replicates with distinct scramble seeds must produce distinct estimates")
	again, err := runRep(qmcSlopeTrials[0], 0, degrade)
	if err != nil {
		return err
	}
	h.checkBehavior(fx, "qmc/replicate-reproducible", again.Mean == means128[0],
		"re-running a replicate at the same seed must reproduce its estimate bitwise")
	return nil
}

// qmcDegradeModes are the Sobol-stream degradations the self-check
// injects as qmc-seq moments: "unscrambled" freezes the scramble (every
// replicate collapses onto one deterministic sequence), "pseudo" replaces
// the sequence with a counter-based pseudo-random stream (the acceleration
// disappears). Degradation replaces the generator rather than scaling a
// moment, so the self-check records Factor 1.
var qmcDegradeModes = []string{"unscrambled", "pseudo"}
