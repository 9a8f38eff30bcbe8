// Package baseline implements the comparison systems of the GRAFICS
// evaluation (§VI-A): Scalable-DNN (Kim et al.), SAE (Nowicki &
// Wietrzykowski), Autoencoder+Prox, MDS+Prox, and the raw matrix
// representation of Fig. 14. All of them start from the fixed-length
// fingerprint matrix whose missing entries are imputed with −120 dBm —
// precisely the representation whose "missing value problem" the paper's
// bipartite graph avoids.
package baseline

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/mds"
	"repro/internal/nn"
	"repro/internal/sampling"
)

// MissingRSS is the imputation value for unseen MACs in the matrix
// representation (§VI-C of the paper).
const MissingRSS = -120.0

// FitPredictor is the uniform interface the experiment harness drives:
// train on the training records (of which the ones with Labeled set carry
// floor labels) and return a predicted floor for every test record.
type FitPredictor interface {
	Name() string
	FitPredict(train, test []dataset.Record, seed int64) ([]int, error)
}

// ErrNoLabeledTraining is returned when no training record carries a
// label.
var ErrNoLabeledTraining = errors.New("baseline: no labeled training records")

// Vocabulary is an ordered MAC-address index built from training records.
type Vocabulary struct {
	macs  []string
	index map[string]int
}

// NewVocabulary collects the distinct MACs of records in sorted order.
func NewVocabulary(records []dataset.Record) *Vocabulary {
	seen := make(map[string]struct{})
	for i := range records {
		for _, rd := range records[i].Readings {
			seen[rd.MAC] = struct{}{}
		}
	}
	macs := make([]string, 0, len(seen))
	for m := range seen {
		macs = append(macs, m)
	}
	sort.Strings(macs)
	index := make(map[string]int, len(macs))
	for i, m := range macs {
		index[m] = i
	}
	return &Vocabulary{macs: macs, index: index}
}

// Size returns the number of distinct MACs.
func (v *Vocabulary) Size() int { return len(v.macs) }

// Row converts a record to a normalized fixed-length vector: present MACs
// map (RSS − MissingRSS)/100 into roughly [0, 1], absent MACs are 0 (the
// −120 dBm imputation after normalization). Test-time MACs outside the
// vocabulary are dropped, as a matrix model cannot represent them.
func (v *Vocabulary) Row(rec *dataset.Record) []float64 {
	row := make([]float64, len(v.macs))
	for _, rd := range rec.Readings {
		if i, ok := v.index[rd.MAC]; ok {
			val := (rd.RSS - MissingRSS) / 100
			if val > row[i] {
				row[i] = val
			}
		}
	}
	return row
}

// Matrix converts records to their matrix representation under v.
func (v *Vocabulary) Matrix(records []dataset.Record) [][]float64 {
	out := make([][]float64, len(records))
	for i := range records {
		out[i] = v.Row(&records[i])
	}
	return out
}

// proxPredict clusters the training embeddings with the labeled anchors
// (the paper's Prox step) and classifies each test embedding by nearest
// centroid.
func proxPredict(trainVecs [][]float64, train []dataset.Record, testVecs [][]float64) ([]int, error) {
	items := make([]cluster.Item, len(trainVecs))
	anyLabel := false
	for i := range trainVecs {
		label := cluster.Unlabeled
		if train[i].Labeled {
			label = train[i].Floor
			anyLabel = true
		}
		items[i] = cluster.Item{Index: i, Vec: trainVecs[i], Label: label}
	}
	if !anyLabel {
		return nil, ErrNoLabeledTraining
	}
	model, err := cluster.TrainCtx(context.Background(), items)
	if err != nil {
		return nil, fmt.Errorf("baseline: prox clustering: %w", err)
	}
	out := make([]int, len(testVecs))
	for i, vec := range testVecs {
		label, _, _ := model.Predict(vec)
		out[i] = label
	}
	return out, nil
}

// pseudoLabels implements the paper's protocol for training the supervised
// baselines with scarce labels: every unlabeled embedding receives the
// label of the nearest labeled embedding.
func pseudoLabels(vecs [][]float64, train []dataset.Record) ([]int, error) {
	var labeledIdx []int
	for i := range train {
		if train[i].Labeled {
			labeledIdx = append(labeledIdx, i)
		}
	}
	if len(labeledIdx) == 0 {
		return nil, ErrNoLabeledTraining
	}
	out := make([]int, len(train))
	for i := range train {
		if train[i].Labeled {
			out[i] = train[i].Floor
			continue
		}
		best := -1
		bestD := 0.0
		for _, j := range labeledIdx {
			d := linalg.SquaredDistance(vecs[i], vecs[j])
			if best == -1 || d < bestD {
				best = j
				bestD = d
			}
		}
		out[i] = train[best].Floor
	}
	return out, nil
}

// floorIndexing maps arbitrary floor labels to a dense [0, n) range for
// one-hot encoding.
type floorIndexing struct {
	toDense map[int]int
	toFloor []int
}

func newFloorIndexing(labels []int) *floorIndexing {
	f := &floorIndexing{toDense: make(map[int]int)}
	for _, l := range labels {
		if _, ok := f.toDense[l]; !ok {
			f.toDense[l] = len(f.toFloor)
			f.toFloor = append(f.toFloor, l)
		}
	}
	return f
}

func (f *floorIndexing) classes() int { return len(f.toFloor) }

// MDSProx is multidimensional scaling (1 − cosine dissimilarity, classical
// Torgerson embedding) + proximity clustering. MDS is transductive, so
// train and test rows are embedded jointly.
type MDSProx struct {
	// Dim is the embedding dimension (paper: 8).
	Dim int
}

// Name implements FitPredictor.
func (MDSProx) Name() string { return "MDS" }

// FitPredict implements FitPredictor.
func (m MDSProx) FitPredict(train, test []dataset.Record, seed int64) ([]int, error) {
	dim := m.Dim
	if dim <= 0 {
		dim = 8
	}
	vocab := NewVocabulary(train)
	all := make([]dataset.Record, 0, len(train)+len(test))
	all = append(all, train...)
	all = append(all, test...)
	rows := vocab.Matrix(all)
	diss, err := mds.CosineDissimilarity(rows)
	if err != nil {
		return nil, fmt.Errorf("baseline: MDS dissimilarity: %w", err)
	}
	if diss.Rows < dim {
		dim = diss.Rows
	}
	coords, err := mds.Classical(diss, dim, seed)
	if err != nil {
		return nil, fmt.Errorf("baseline: MDS embed: %w", err)
	}
	return proxPredict(coords[:len(train)], train, coords[len(train):])
}

// AutoencoderProx is the four-layer 1-D convolutional autoencoder + Prox
// baseline.
type AutoencoderProx struct {
	// Dim is the latent dimension (paper: 8).
	Dim int
	// Epochs of reconstruction training.
	Epochs int
}

// Name implements FitPredictor.
func (AutoencoderProx) Name() string { return "Autoencoder" }

// FitPredict implements FitPredictor.
func (a AutoencoderProx) FitPredict(train, test []dataset.Record, seed int64) ([]int, error) {
	dim := a.Dim
	if dim <= 0 {
		dim = 8
	}
	epochs := a.Epochs
	if epochs <= 0 {
		epochs = 15
	}
	vocab := NewVocabulary(train)
	if vocab.Size() < 16 {
		return nil, fmt.Errorf("baseline: autoencoder needs >= 16 MACs, have %d", vocab.Size())
	}
	seeder := sampling.NewSeeder(seed)
	rng := seeder.NextRand()
	ae, err := nn.NewConvAutoencoder(vocab.Size(), dim, rng)
	if err != nil {
		return nil, fmt.Errorf("baseline: build autoencoder: %w", err)
	}
	trainRows := vocab.Matrix(train)
	if _, err := nn.Fit(ae.Full, trainRows, trainRows, nn.MSE{}, nn.NewAdam(0.001), nn.FitConfig{Epochs: epochs, Seed: seeder.Next()}); err != nil {
		return nil, fmt.Errorf("baseline: train autoencoder: %w", err)
	}
	trainVecs := make([][]float64, len(trainRows))
	for i, r := range trainRows {
		trainVecs[i] = append([]float64(nil), ae.Encode(r)...)
	}
	testRows := vocab.Matrix(test)
	testVecs := make([][]float64, len(testRows))
	for i, r := range testRows {
		testVecs[i] = append([]float64(nil), ae.Encode(r)...)
	}
	return proxPredict(trainVecs, train, testVecs)
}

// MatrixProx is the Fig. 14 ablation: the raw matrix rows are used directly
// as "embeddings" for proximity clustering.
type MatrixProx struct{}

// Name implements FitPredictor.
func (MatrixProx) Name() string { return "Matrix" }

// FitPredict implements FitPredictor.
func (MatrixProx) FitPredict(train, test []dataset.Record, seed int64) ([]int, error) {
	vocab := NewVocabulary(train)
	return proxPredict(vocab.Matrix(train), train, vocab.Matrix(test))
}

// ScalableDNN is the Kim et al. baseline: a stacked-autoencoder encoding
// network followed by a feed-forward floor classifier emitting one-hot
// floor IDs, trained on pseudo-labeled data.
type ScalableDNN struct {
	// Dim is the embedding width out of the encoder (paper setup: 8 to
	// match the others).
	Dim int
	// PretrainEpochs and ClassifierEpochs bound training.
	PretrainEpochs   int
	ClassifierEpochs int
}

// Name implements FitPredictor.
func (ScalableDNN) Name() string { return "Scalable-DNN" }

// FitPredict implements FitPredictor.
func (s ScalableDNN) FitPredict(train, test []dataset.Record, seed int64) ([]int, error) {
	dim := s.Dim
	if dim <= 0 {
		dim = 8
	}
	pe := s.PretrainEpochs
	if pe <= 0 {
		pe = 10
	}
	ce := s.ClassifierEpochs
	if ce <= 0 {
		ce = 30
	}
	vocab := NewVocabulary(train)
	seeder := sampling.NewSeeder(seed)
	rng := seeder.NextRand()
	trainRows := vocab.Matrix(train)
	// Encoding network: SAE-pretrained dense stack 64 -> dim.
	encoder, err := nn.StackedAutoencoder(trainRows, []int{64, dim}, pe, 0.001, rng)
	if err != nil {
		return nil, fmt.Errorf("baseline: scalable-dnn encoder: %w", err)
	}
	embedAll := func(rows [][]float64) [][]float64 {
		out := make([][]float64, len(rows))
		for i, r := range rows {
			out[i] = append([]float64(nil), encoder.Forward(r)...)
		}
		return out
	}
	trainVecs := embedAll(trainRows)
	labels, err := pseudoLabels(trainVecs, train)
	if err != nil {
		return nil, err
	}
	idx := newFloorIndexing(labels)
	targets := make([][]float64, len(labels))
	for i, l := range labels {
		targets[i] = nn.OneHot(idx.toDense[l], idx.classes())
	}
	classifier := &nn.Network{Layers: []nn.Layer{
		nn.NewDense(dim, 32, rng), &nn.ReLU{},
		nn.NewDense(32, idx.classes(), rng),
	}}
	if _, err := nn.Fit(classifier, trainVecs, targets, nn.SoftmaxCrossEntropy{}, nn.NewAdam(0.002), nn.FitConfig{Epochs: ce, Seed: seeder.Next()}); err != nil {
		return nil, fmt.Errorf("baseline: scalable-dnn classifier: %w", err)
	}
	testVecs := embedAll(vocab.Matrix(test))
	out := make([]int, len(testVecs))
	for i, v := range testVecs {
		out[i] = idx.toFloor[nn.Argmax(classifier.Forward(v))]
	}
	return out, nil
}

// SAE is the Nowicki & Wietrzykowski baseline: stacked autoencoders learn
// low-dimensional embeddings and a dense classifier head is fine-tuned
// end-to-end on (pseudo-)labeled data.
type SAE struct {
	// Widths are the stacked layer widths (default 128, 32, 8).
	Widths []int
	// PretrainEpochs and FineTuneEpochs bound training.
	PretrainEpochs int
	FineTuneEpochs int
}

// Name implements FitPredictor.
func (SAE) Name() string { return "SAE" }

// FitPredict implements FitPredictor.
func (s SAE) FitPredict(train, test []dataset.Record, seed int64) ([]int, error) {
	widths := s.Widths
	if len(widths) == 0 {
		widths = []int{128, 32, 8}
	}
	pe := s.PretrainEpochs
	if pe <= 0 {
		pe = 10
	}
	fe := s.FineTuneEpochs
	if fe <= 0 {
		fe = 30
	}
	vocab := NewVocabulary(train)
	seeder := sampling.NewSeeder(seed)
	rng := seeder.NextRand()
	trainRows := vocab.Matrix(train)
	encoder, err := nn.StackedAutoencoder(trainRows, widths, pe, 0.001, rng)
	if err != nil {
		return nil, fmt.Errorf("baseline: sae encoder: %w", err)
	}
	// Pseudo-label in the pretrained embedding space.
	trainVecs := make([][]float64, len(trainRows))
	for i, r := range trainRows {
		trainVecs[i] = append([]float64(nil), encoder.Forward(r)...)
	}
	labels, err := pseudoLabels(trainVecs, train)
	if err != nil {
		return nil, err
	}
	idx := newFloorIndexing(labels)
	targets := make([][]float64, len(labels))
	for i, l := range labels {
		targets[i] = nn.OneHot(idx.toDense[l], idx.classes())
	}
	// Fine-tune encoder + classifier end-to-end.
	full := &nn.Network{Layers: append(append([]nn.Layer{}, encoder.Layers...),
		nn.NewDense(widths[len(widths)-1], idx.classes(), rng))}
	if _, err := nn.Fit(full, trainRows, targets, nn.SoftmaxCrossEntropy{}, nn.NewAdam(0.001), nn.FitConfig{Epochs: fe, Seed: seeder.Next()}); err != nil {
		return nil, fmt.Errorf("baseline: sae fine-tune: %w", err)
	}
	testRows := vocab.Matrix(test)
	out := make([]int, len(testRows))
	for i, r := range testRows {
		out[i] = idx.toFloor[nn.Argmax(full.Forward(r))]
	}
	return out, nil
}

// Interface compliance checks.
var (
	_ FitPredictor = MDSProx{}
	_ FitPredictor = AutoencoderProx{}
	_ FitPredictor = MatrixProx{}
	_ FitPredictor = ScalableDNN{}
	_ FitPredictor = SAE{}
)
