// Command grafics trains and evaluates a GRAFICS floor-identification
// model on a corpus JSON file (as produced by datagen).
//
//	grafics train -corpus campus.json -building 0 -labels 4 -model model.gob
//	grafics eval  -corpus campus.json -building 0 -labels 4
//	grafics predict -model model.gob -scan scan.json
//
// The eval subcommand performs the paper's 70/30 split and reports
// micro/macro precision, recall, and F-score.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	grafics "repro"
	"repro/internal/dataset"
	"repro/internal/metrics"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "grafics:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: grafics <train|eval|predict> [flags]")
	}
	switch args[0] {
	case "train":
		return runTrain(args[1:])
	case "eval":
		return runEval(args[1:])
	case "predict":
		return runPredict(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want train, eval, or predict)", args[0])
	}
}

// loadBuilding reads the corpus and picks one building.
func loadBuilding(path string, index int) (*dataset.Building, error) {
	corpus, err := dataset.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= len(corpus.Buildings) {
		return nil, fmt.Errorf("building index %d outside [0,%d)", index, len(corpus.Buildings))
	}
	return &corpus.Buildings[index], nil
}

func newSystem(samplesPerEdge int) *grafics.System {
	cfg := grafics.Config{}
	cfg.Embed = grafics.DefaultEmbedConfig()
	if samplesPerEdge > 0 {
		cfg.Embed.SamplesPerEdge = samplesPerEdge
	}
	return grafics.New(cfg)
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	corpusPath := fs.String("corpus", "", "corpus JSON path (required)")
	building := fs.Int("building", 0, "building index within the corpus")
	labels := fs.Int("labels", 4, "labeled records per floor")
	seed := fs.Int64("seed", 1, "label-selection seed")
	modelPath := fs.String("model", "model.gob", "output model path")
	samples := fs.Int("samples-per-edge", 0, "E-LINE sample budget override")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corpusPath == "" {
		return fmt.Errorf("-corpus is required")
	}
	b, err := loadBuilding(*corpusPath, *building)
	if err != nil {
		return err
	}
	records := append([]dataset.Record(nil), b.Records...)
	granted := dataset.SelectLabels(records, *labels, rand.New(rand.NewSource(*seed)))
	sys := newSystem(*samples)
	if err := sys.AddTraining(records); err != nil {
		return err
	}
	if err := sys.FitCtx(context.Background()); err != nil {
		return err
	}
	if err := sys.SaveFile(*modelPath); err != nil {
		return err
	}
	st := sys.Stats()
	fmt.Printf("trained on %d records (%d labeled), %d MACs, %d edges -> %s\n",
		st.Records, granted, st.MACs, st.Edges, *modelPath)
	return nil
}

func runEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	corpusPath := fs.String("corpus", "", "corpus JSON path (required)")
	building := fs.Int("building", 0, "building index within the corpus")
	labels := fs.Int("labels", 4, "labeled records per floor")
	trainFrac := fs.Float64("train-fraction", 0.7, "training split fraction")
	seed := fs.Int64("seed", 1, "split/label seed")
	samples := fs.Int("samples-per-edge", 0, "E-LINE sample budget override")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corpusPath == "" {
		return fmt.Errorf("-corpus is required")
	}
	b, err := loadBuilding(*corpusPath, *building)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	train, test, err := dataset.Split(b, *trainFrac, rng)
	if err != nil {
		return err
	}
	dataset.SelectLabels(train, *labels, rng)
	sys := newSystem(*samples)
	if err := sys.AddTraining(train); err != nil {
		return err
	}
	ctx := context.Background()
	if err := sys.FitCtx(ctx); err != nil {
		return err
	}
	conf := metrics.NewConfusion()
	failures := 0
	for i := range test {
		res, err := sys.Classify(ctx, &test[i])
		if err != nil {
			failures++
			conf.Add(test[i].Floor, -1)
			continue
		}
		conf.Add(test[i].Floor, res.Floor)
	}
	rep := conf.Compute()
	fmt.Printf("building %s: %d train / %d test, %d floors\n", b.Name, len(train), len(test), b.Floors)
	fmt.Printf("micro: P=%.3f R=%.3f F=%.3f\n", rep.MicroP, rep.MicroR, rep.MicroF)
	fmt.Printf("macro: P=%.3f R=%.3f F=%.3f\n", rep.MacroP, rep.MacroR, rep.MacroF)
	fmt.Printf("accuracy: %.3f (%d unclassifiable scans)\n", rep.Accuracy, failures)
	return nil
}

func runPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	modelPath := fs.String("model", "model.gob", "trained model path")
	scanPath := fs.String("scan", "", "JSON file holding one record or an array of records (default stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := grafics.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	var raw []byte
	if *scanPath == "" {
		if raw, err = io.ReadAll(os.Stdin); err != nil {
			return err
		}
	} else if raw, err = os.ReadFile(*scanPath); err != nil {
		return err
	}
	records, err := decodeRecords(raw)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i := range records {
		res, err := sys.Classify(ctx, &records[i])
		if err != nil {
			fmt.Printf("%s: error: %v\n", records[i].ID, err)
			continue
		}
		fmt.Printf("%s: floor %d (centroid distance %.4f)\n", records[i].ID, res.Floor, res.Distance)
	}
	return nil
}

func decodeRecords(raw []byte) ([]dataset.Record, error) {
	var many []dataset.Record
	if err := json.Unmarshal(raw, &many); err == nil {
		return many, nil
	}
	var one dataset.Record
	if err := json.Unmarshal(raw, &one); err != nil {
		return nil, fmt.Errorf("decode scan JSON: %w", err)
	}
	return []dataset.Record{one}, nil
}
