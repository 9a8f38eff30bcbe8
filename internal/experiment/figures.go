package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/mds"
	"repro/internal/nn"
	"repro/internal/rfgraph"
	"repro/internal/sampling"
	"repro/internal/simulate"
	"repro/internal/tsne"
)

// evalAveraged runs EvalCorpus Repetitions times with distinct seeds and
// averages the results (the paper runs every algorithm 10 times per cell).
func evalAveraged(c *dataset.Corpus, method baseline.FitPredictor, opts EvalOptions, reps int) (CellResult, error) {
	if reps <= 0 {
		reps = 1
	}
	var acc CellResult
	for r := 0; r < reps; r++ {
		o := opts
		o.Seed = opts.Seed + int64(r)*7919
		cell, err := EvalCorpus(c, method, o)
		if err != nil {
			return acc, err
		}
		if r == 0 {
			acc = cell
			continue
		}
		acc.MicroP += cell.MicroP
		acc.MicroR += cell.MicroR
		acc.MicroF += cell.MicroF
		acc.MacroP += cell.MacroP
		acc.MacroR += cell.MacroR
		acc.MacroF += cell.MacroF
		acc.MicroFStd += cell.MicroFStd
	}
	n := float64(reps)
	acc.MicroP /= n
	acc.MicroR /= n
	acc.MicroF /= n
	acc.MacroP /= n
	acc.MacroR /= n
	acc.MacroF /= n
	acc.MicroFStd /= n
	return acc, nil
}

// ---------------------------------------------------------------------------
// Fig. 1 — heterogeneity statistics of records on one floor.

// Fig01Result holds the two CDFs of Fig. 1 plus the headline counts quoted
// in the paper's introduction (8,274 records, 805 distinct MACs).
type Fig01Result struct {
	Records      int
	DistinctMACs int
	// MACCountCDF is the CDF of the number of MACs per record.
	MACCountCDF []dataset.CDFPoint
	// OverlapCDF is the CDF of the pairwise MAC overlap ratio.
	OverlapCDF []dataset.CDFPoint
	// FracPairsBelowHalf is the fraction of record pairs with overlap
	// ratio < 0.5 (paper: 78%).
	FracPairsBelowHalf float64
}

// Fig01 generates a mall-like floor and computes the Fig. 1 statistics.
func Fig01(recordsOnFloor int, seed int64) (Fig01Result, error) {
	params := simulate.HongKongLike(recordsOnFloor, seed)
	params.NumBuildings = 1
	params.FloorsMin, params.FloorsMax = 3, 3
	corpus, err := simulate.Generate(params)
	if err != nil {
		return Fig01Result{}, err
	}
	var floor []dataset.Record
	b := &corpus.Buildings[0]
	for i := range b.Records {
		if b.Records[i].Floor == 0 {
			floor = append(floor, b.Records[i])
		}
	}
	distinct := map[string]struct{}{}
	for i := range floor {
		for _, rd := range floor[i].Readings {
			distinct[rd.MAC] = struct{}{}
		}
	}
	rng := rand.New(rand.NewSource(seed + 99))
	ratios := dataset.PairOverlapRatios(floor, 20000, rng)
	below := 0
	for _, r := range ratios {
		if r < 0.5 {
			below++
		}
	}
	res := Fig01Result{
		Records:      len(floor),
		DistinctMACs: len(distinct),
		MACCountCDF:  dataset.EmpiricalCDF(dataset.MACCounts(floor)),
		OverlapCDF:   dataset.EmpiricalCDF(ratios),
	}
	if len(ratios) > 0 {
		res.FracPairsBelowHalf = float64(below) / float64(len(ratios))
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Fig. 6 — embedding quality of E-LINE vs MDS vs autoencoder.

// Fig06Row quantifies one method's embedding of the 3-floor campus corpus:
// silhouette of the embeddings under true floor labels, and the purity of
// the proximity clustering built on them. TSNE holds the 2-D projection for
// plotting.
type Fig06Row struct {
	Method     string
	Silhouette float64
	Purity     float64
	TSNE       [][]float64
	Labels     []int
}

// Fig06 reproduces the embedding comparison on the three-story campus
// building. Because a single small building is high-variance, silhouette
// and purity are averaged over three seeds; the t-SNE projection comes
// from the first seed. EXPERIMENTS.md discusses how the synthetic campus
// corpus is more benign than the paper's real data for the matrix-based
// competitors.
func Fig06(recordsPerFloor, samplesPerEdge int, seed int64) ([]Fig06Row, error) {
	const seeds = 3
	var agg []Fig06Row
	for r := int64(0); r < seeds; r++ {
		rows, err := fig06On(simulate.Campus3F(recordsPerFloor, seed+r), samplesPerEdge, seed+r)
		if err != nil {
			return nil, err
		}
		if agg == nil {
			agg = rows
			continue
		}
		for i := range rows {
			agg[i].Silhouette += rows[i].Silhouette
			agg[i].Purity += rows[i].Purity
		}
	}
	for i := range agg {
		agg[i].Silhouette /= seeds
		agg[i].Purity /= seeds
	}
	return agg, nil
}

// fig06On runs the Fig. 6 comparison on an arbitrary corpus parameterset.
func fig06On(params simulate.Params, samplesPerEdge int, seed int64) ([]Fig06Row, error) {
	corpus, err := simulate.Generate(params)
	if err != nil {
		return nil, err
	}
	records := corpus.Buildings[0].Records
	truth := make([]int, len(records))
	for i := range records {
		truth[i] = records[i].Floor
	}

	embedBy := map[string][][]float64{}

	// E-LINE embeddings from the bipartite graph.
	g := rfgraph.New(nil)
	ids, err := g.AddRecords(records)
	if err != nil {
		return nil, fmt.Errorf("experiment: fig6 graph: %w", err)
	}
	ecfg := embed.DefaultConfig()
	ecfg.SamplesPerEdge = samplesPerEdge
	ecfg.Seed = seed
	emb, err := embed.TrainCtx(context.Background(), g, ecfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: fig6 e-line: %w", err)
	}
	eline := make([][]float64, len(records))
	for i, id := range ids {
		eline[i] = emb.EgoOf(id)
	}
	embedBy["E-LINE"] = eline

	// MDS on the matrix representation.
	vocab := baseline.NewVocabulary(records)
	rows := vocab.Matrix(records)
	diss, err := mds.CosineDissimilarity(rows)
	if err != nil {
		return nil, fmt.Errorf("experiment: fig6 mds: %w", err)
	}
	coords, err := mds.Classical(diss, 8, seed)
	if err != nil {
		return nil, fmt.Errorf("experiment: fig6 mds embed: %w", err)
	}
	embedBy["MDS"] = coords

	// Convolutional autoencoder on the matrix representation.
	seeder := sampling.NewSeeder(seed + 5)
	ae, err := nn.NewConvAutoencoder(vocab.Size(), 8, seeder.NextRand())
	if err != nil {
		return nil, fmt.Errorf("experiment: fig6 autoencoder: %w", err)
	}
	if _, err := nn.Fit(ae.Full, rows, rows, nn.MSE{}, nn.NewAdam(0.001), nn.FitConfig{Epochs: 10, Seed: seeder.Next()}); err != nil {
		return nil, fmt.Errorf("experiment: fig6 autoencoder fit: %w", err)
	}
	codes := make([][]float64, len(rows))
	for i, r := range rows {
		codes[i] = append([]float64(nil), ae.Encode(r)...)
	}
	embedBy["Autoencoder"] = codes

	var out []Fig06Row
	for _, name := range []string{"E-LINE", "MDS", "Autoencoder"} {
		vecs := embedBy[name]
		sil, err := tsne.Silhouette(vecs, truth)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig6 silhouette %s: %w", name, err)
		}
		// Purity of the proximity clustering anchored at 4 labels/floor.
		items := make([]cluster.Item, len(vecs))
		perFloor := map[int]int{}
		for i := range vecs {
			label := cluster.Unlabeled
			if perFloor[truth[i]] < 4 {
				label = truth[i]
				perFloor[truth[i]]++
			}
			items[i] = cluster.Item{Index: i, Vec: vecs[i], Label: label}
		}
		model, err := cluster.TrainCtx(context.Background(), items)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig6 cluster %s: %w", name, err)
		}
		purity, err := tsne.Purity(model.MemberLabels(), truth)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig6 purity %s: %w", name, err)
		}
		// 2-D t-SNE projection for plotting.
		topts := tsne.DefaultOptions()
		topts.Seed = seed
		if float64(len(vecs)-1) <= topts.Perplexity*3 {
			topts.Perplexity = float64(len(vecs)-1) / 4
		}
		proj, err := tsne.Embed(vecs, topts)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig6 tsne %s: %w", name, err)
		}
		out = append(out, Fig06Row{Method: name, Silhouette: sil, Purity: purity, TSNE: proj, Labels: truth})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 8 — clustering progression.

// Fig08Row is the cluster state after a fraction of all merges.
type Fig08Row struct {
	FractionMerged float64
	Clusters       int
	// Purity of the partial clustering against true floors.
	Purity float64
}

// Fig08 reproduces the merge progression on the campus corpus with four
// labels per floor.
func Fig08(recordsPerFloor, samplesPerEdge int, seed int64) ([]Fig08Row, error) {
	corpus, err := simulate.Generate(simulate.Campus3F(recordsPerFloor, seed))
	if err != nil {
		return nil, err
	}
	records := corpus.Buildings[0].Records
	rng := rand.New(rand.NewSource(seed))
	dataset.SelectLabels(records, 4, rng)
	cfg := core.Config{}
	cfg.Embed = embed.DefaultConfig()
	cfg.Embed.SamplesPerEdge = samplesPerEdge
	cfg.Embed.Seed = seed
	sys := core.New(cfg)
	if err := sys.AddTraining(records); err != nil {
		return nil, err
	}
	if err := sys.FitCtx(context.Background()); err != nil {
		return nil, err
	}
	model, err := sys.ClusterModel()
	if err != nil {
		return nil, err
	}
	truth := make([]int, len(records))
	for i := range records {
		truth[i] = records[i].Floor
	}
	var out []Fig08Row
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		k := int(frac * float64(len(model.Trace)))
		assign := model.AssignmentsAfter(k)
		distinct := map[int]struct{}{}
		for _, a := range assign {
			distinct[a] = struct{}{}
		}
		purity, err := tsne.Purity(assign, truth)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig08Row{FractionMerged: frac, Clusters: len(distinct), Purity: purity})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 9 — corpus summary.

// Fig09 generates both corpora at the given scale and returns per-building
// summaries (floors, area, MACs, records).
func Fig09(s Scale, seed int64) (map[string][]dataset.BuildingSummary, error) {
	out := map[string][]dataset.BuildingSummary{}
	for _, spec := range Datasets(s, seed) {
		corpus, err := simulate.Generate(spec.Params)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig9 %s: %w", spec.Name, err)
		}
		out[spec.Name] = corpus.Summarize()
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 11 — F-scores vs labels per floor for all methods.

// Fig11Row is one curve point of Fig. 11.
type Fig11Row struct {
	Dataset        string
	Method         string
	LabelsPerFloor int
	MicroF         float64
	MacroF         float64
}

// Fig11 sweeps the per-floor label budget for every method on both
// corpora.
func Fig11(s Scale, labelCounts []int, seed int64) ([]Fig11Row, error) {
	if len(labelCounts) == 0 {
		labelCounts = []int{1, 4, 10, 40, 100}
	}
	methods := DefaultMethods(s.SamplesPerEdge)
	var out []Fig11Row
	for _, spec := range Datasets(s, seed) {
		corpus, err := simulate.Generate(spec.Params)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig11 %s: %w", spec.Name, err)
		}
		corpus.Name = spec.Name
		for _, labels := range labelCounts {
			for _, m := range methods {
				cell, err := evalAveraged(corpus, m, EvalOptions{LabelsPerFloor: labels, Seed: seed}, s.Repetitions)
				if err != nil {
					return nil, fmt.Errorf("experiment: fig11 %s/%s/%d: %w", spec.Name, m.Name(), labels, err)
				}
				out = append(out, Fig11Row{
					Dataset: spec.Name, Method: m.Name(), LabelsPerFloor: labels,
					MicroF: cell.MicroF, MacroF: cell.MacroF,
				})
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 12 — F-scores vs training-data ratio at 4 labels/floor.

// Fig12Row is one curve point of Fig. 12.
type Fig12Row struct {
	Dataset  string
	TrainPct int
	MicroF   float64
	MacroF   float64
}

// Fig12 sweeps the train/test split ratio with the label budget fixed at 4
// per floor.
func Fig12(s Scale, ratios []float64, seed int64) ([]Fig12Row, error) {
	if len(ratios) == 0 {
		ratios = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	method := Grafics{SamplesPerEdge: s.SamplesPerEdge}
	var out []Fig12Row
	for _, spec := range Datasets(s, seed) {
		corpus, err := simulate.Generate(spec.Params)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig12 %s: %w", spec.Name, err)
		}
		corpus.Name = spec.Name
		for _, ratio := range ratios {
			cell, err := evalAveraged(corpus, method, EvalOptions{LabelsPerFloor: 4, TrainFraction: ratio, Seed: seed}, s.Repetitions)
			if err != nil {
				return nil, fmt.Errorf("experiment: fig12 %s/%v: %w", spec.Name, ratio, err)
			}
			out = append(out, Fig12Row{
				Dataset: spec.Name, TrainPct: int(ratio*100 + 0.5),
				MicroF: cell.MicroF, MacroF: cell.MacroF,
			})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 13 — E-LINE vs LINE.

// Fig13Row is one bar group of Fig. 13.
type Fig13Row struct {
	Dataset string
	Labels  int
	Variant string

	MicroP, MicroR, MicroF float64
	MacroP, MacroR, MacroF float64
	MicroFStd              float64
}

// Fig13 compares GRAFICS with E-LINE against GRAFICS with second-order
// LINE at 4 and 40 labels per floor.
func Fig13(s Scale, seed int64) ([]Fig13Row, error) {
	variants := []baseline.FitPredictor{
		Grafics{Label: "E-LINE", SamplesPerEdge: s.SamplesPerEdge},
		GraficsWithLINE(s.SamplesPerEdge),
	}
	var out []Fig13Row
	for _, spec := range Datasets(s, seed) {
		corpus, err := simulate.Generate(spec.Params)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig13 %s: %w", spec.Name, err)
		}
		corpus.Name = spec.Name
		for _, labels := range []int{4, 40} {
			for _, v := range variants {
				cell, err := evalAveraged(corpus, v, EvalOptions{LabelsPerFloor: labels, Seed: seed}, s.Repetitions)
				if err != nil {
					return nil, fmt.Errorf("experiment: fig13 %s/%s/%d: %w", spec.Name, v.Name(), labels, err)
				}
				name := v.Name()
				if name == "GRAFICS-LINE" {
					name = "LINE"
				}
				out = append(out, Fig13Row{
					Dataset: spec.Name, Labels: labels, Variant: name,
					MicroP: cell.MicroP, MicroR: cell.MicroR, MicroF: cell.MicroF,
					MacroP: cell.MacroP, MacroR: cell.MacroR, MacroF: cell.MacroF,
					MicroFStd: cell.MicroFStd,
				})
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 14 — graph modeling vs matrix representation.

// Fig14Row is one bar group of Fig. 14.
type Fig14Row struct {
	Dataset        string
	Representation string

	MicroP, MicroR, MicroF float64
	MacroP, MacroR, MacroF float64
}

// Fig14 compares the bipartite graph + E-LINE pipeline against proximity
// clustering on the raw −120 dBm-imputed matrix.
func Fig14(s Scale, seed int64) ([]Fig14Row, error) {
	variants := []baseline.FitPredictor{
		Grafics{Label: "Graph", SamplesPerEdge: s.SamplesPerEdge},
		baseline.MatrixProx{},
	}
	var out []Fig14Row
	for _, spec := range Datasets(s, seed) {
		corpus, err := simulate.Generate(spec.Params)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig14 %s: %w", spec.Name, err)
		}
		corpus.Name = spec.Name
		for _, v := range variants {
			cell, err := evalAveraged(corpus, v, EvalOptions{LabelsPerFloor: 4, Seed: seed}, s.Repetitions)
			if err != nil {
				return nil, fmt.Errorf("experiment: fig14 %s/%s: %w", spec.Name, v.Name(), err)
			}
			out = append(out, Fig14Row{
				Dataset: spec.Name, Representation: v.Name(),
				MicroP: cell.MicroP, MicroR: cell.MicroR, MicroF: cell.MicroF,
				MacroP: cell.MacroP, MacroR: cell.MacroR, MacroF: cell.MacroF,
			})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 15 — embedding-dimension sensitivity.

// Fig15Row is one point of the dimension sweep.
type Fig15Row struct {
	Dataset string
	Dim     int
	MicroF  float64
	MacroF  float64
}

// Fig15 sweeps the embedding dimension over powers of two (paper: 2²-2⁸).
func Fig15(s Scale, dims []int, seed int64) ([]Fig15Row, error) {
	if len(dims) == 0 {
		dims = []int{4, 8, 16, 32, 64, 128, 256}
	}
	var out []Fig15Row
	for _, spec := range Datasets(s, seed) {
		corpus, err := simulate.Generate(spec.Params)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig15 %s: %w", spec.Name, err)
		}
		corpus.Name = spec.Name
		for _, dim := range dims {
			cell, err := evalAveraged(corpus, GraficsWithDim(dim, s.SamplesPerEdge), EvalOptions{LabelsPerFloor: 4, Seed: seed}, s.Repetitions)
			if err != nil {
				return nil, fmt.Errorf("experiment: fig15 %s/d%d: %w", spec.Name, dim, err)
			}
			out = append(out, Fig15Row{Dataset: spec.Name, Dim: dim, MicroF: cell.MicroF, MacroF: cell.MacroF})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 16 — weight-function comparison.

// Fig16Row is one bar group of Fig. 16.
type Fig16Row struct {
	Dataset  string
	WeightFn string

	MicroP, MicroR, MicroF float64
	MacroP, MacroR, MacroF float64
}

// Fig16 compares f(RSS) = RSS + 120 against g(RSS) = 10^{RSS/10}.
func Fig16(s Scale, seed int64) ([]Fig16Row, error) {
	variants := []baseline.FitPredictor{
		GraficsWithWeight(core.WeightSpec{Kind: core.WeightOffset, Alpha: 120}, "f=RSS+120", s.SamplesPerEdge),
		GraficsWithWeight(core.WeightSpec{Kind: core.WeightPower}, "g=10^(RSS/10)", s.SamplesPerEdge),
	}
	var out []Fig16Row
	for _, spec := range Datasets(s, seed) {
		corpus, err := simulate.Generate(spec.Params)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig16 %s: %w", spec.Name, err)
		}
		corpus.Name = spec.Name
		for _, v := range variants {
			cell, err := evalAveraged(corpus, v, EvalOptions{LabelsPerFloor: 4, Seed: seed}, s.Repetitions)
			if err != nil {
				return nil, fmt.Errorf("experiment: fig16 %s/%s: %w", spec.Name, v.Name(), err)
			}
			out = append(out, Fig16Row{
				Dataset: spec.Name, WeightFn: v.Name(),
				MicroP: cell.MicroP, MicroR: cell.MicroR, MicroF: cell.MicroF,
				MacroP: cell.MacroP, MacroR: cell.MacroR, MacroF: cell.MacroF,
			})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 17 — robustness to sparse MAC availability.

// Fig17Row is one point of the MAC-availability sweep.
type Fig17Row struct {
	Dataset    string
	MACPercent int
	MicroF     float64
	MacroF     float64
}

// Fig17 sweeps the fraction of MACs available on-site (paper: 10-100%).
func Fig17(s Scale, fractions []float64, seed int64) ([]Fig17Row, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.1, 0.4, 0.7, 1.0}
	}
	method := Grafics{SamplesPerEdge: s.SamplesPerEdge}
	var out []Fig17Row
	for _, spec := range Datasets(s, seed) {
		corpus, err := simulate.Generate(spec.Params)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig17 %s: %w", spec.Name, err)
		}
		corpus.Name = spec.Name
		for _, frac := range fractions {
			cell, err := evalAveraged(corpus, method, EvalOptions{LabelsPerFloor: 4, MACFraction: frac, Seed: seed}, s.Repetitions)
			if err != nil {
				return nil, fmt.Errorf("experiment: fig17 %s/%v: %w", spec.Name, frac, err)
			}
			out = append(out, Fig17Row{
				Dataset: spec.Name, MACPercent: int(frac*100 + 0.5),
				MicroF: cell.MicroF, MacroF: cell.MacroF,
			})
		}
	}
	return out, nil
}
