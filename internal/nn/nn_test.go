package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad estimates dLoss/dTheta for every parameter of net via
// central differences on the given sample, and compares with backprop.
func checkGradients(t *testing.T, net *Network, loss Loss, x, y []float64, tol float64) {
	t.Helper()
	net.ZeroGrad()
	pred := net.Forward(x)
	_, g := loss.Compute(pred, y)
	net.Backward(g)

	const eps = 1e-6
	for pi, p := range net.Params() {
		for i := range p.Data {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lp, _ := loss.Compute(net.Forward(x), y)
			p.Data[i] = orig - eps
			lm, _ := loss.Compute(net.Forward(x), y)
			p.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad[i]
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("param %d[%d]: analytic %v vs numeric %v", pi, i, analytic, numeric)
			}
		}
	}
}

func TestDenseGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := &Network{Layers: []Layer{NewDense(4, 3, rng), &ReLU{}, NewDense(3, 2, rng)}}
	x := []float64{0.5, -0.3, 0.8, 0.1}
	y := []float64{1, -1}
	checkGradients(t, net, MSE{}, x, y, 1e-4)
}

func TestSigmoidTanhGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := &Network{Layers: []Layer{NewDense(3, 3, rng), &Sigmoid{}, NewDense(3, 3, rng), &Tanh{}}}
	x := []float64{0.2, -0.7, 1.1}
	y := []float64{0.3, 0.3, 0.4}
	checkGradients(t, net, MSE{}, x, y, 1e-4)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := &Network{Layers: []Layer{NewDense(5, 3, rng)}}
	x := []float64{0.1, 0.4, -0.2, 0.9, -0.5}
	y := OneHot(1, 3)
	checkGradients(t, net, SoftmaxCrossEntropy{}, x, y, 1e-4)
}

func TestConv1DGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	conv, err := NewConv1D(1, 2, 3, 2, 10, rng)
	if err != nil {
		t.Fatalf("NewConv1D: %v", err)
	}
	net := &Network{Layers: []Layer{conv, &ReLU{}, NewDense(conv.OutSize(), 2, rng)}}
	x := make([]float64, 10)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := []float64{0.5, -0.5}
	checkGradients(t, net, MSE{}, x, y, 1e-4)
}

func TestConvTranspose1DGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, err := NewConvTranspose1D(2, 1, 3, 2, 4, rng)
	if err != nil {
		t.Fatalf("NewConvTranspose1D: %v", err)
	}
	net := &Network{Layers: []Layer{NewDense(3, 8, rng), tr}}
	x := []float64{0.3, -0.2, 0.9}
	y := make([]float64, tr.OutSize())
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	checkGradients(t, net, MSE{}, x, y, 1e-4)
}

func TestConvShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	conv, err := NewConv1D(1, 4, 5, 2, 20, rng)
	if err != nil {
		t.Fatalf("NewConv1D: %v", err)
	}
	// outLen = (20-5)/2+1 = 8.
	if conv.OutSize() != 32 {
		t.Errorf("OutSize = %d, want 32", conv.OutSize())
	}
	out := conv.Forward(make([]float64, 20))
	if len(out) != 32 {
		t.Errorf("Forward len = %d, want 32", len(out))
	}
	tr, err := NewConvTranspose1D(4, 1, 5, 2, 8, rng)
	if err != nil {
		t.Fatalf("NewConvTranspose1D: %v", err)
	}
	// outLen = (8-1)*2+5 = 19.
	if tr.OutLength() != 19 {
		t.Errorf("OutLength = %d, want 19", tr.OutLength())
	}
	if _, err := NewConv1D(1, 1, 9, 1, 4, rng); err == nil {
		t.Error("kernel > input should error")
	}
	if _, err := NewConv1D(0, 1, 3, 1, 10, rng); err == nil {
		t.Error("zero channels should error")
	}
}

func TestDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := &Dropout{P: 0.5, Training: true, RNG: rng}
	x := make([]float64, 1000)
	for i := range x {
		x[i] = 1
	}
	out := d.Forward(x)
	zeros := 0
	for _, v := range out {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("surviving value %v, want 2 (inverted dropout)", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropped %d of 1000, want ~500", zeros)
	}
	// Inference mode: identity.
	d.Training = false
	out = d.Forward(x)
	for _, v := range out {
		if v != 1 {
			t.Fatal("inference dropout must be identity")
		}
	}
}

func TestFitLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := &Network{Layers: []Layer{NewDense(2, 8, rng), &Tanh{}, NewDense(8, 2, rng)}}
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := [][]float64{OneHot(0, 2), OneHot(1, 2), OneHot(1, 2), OneHot(0, 2)}
	if _, err := Fit(net, inputs, targets, SoftmaxCrossEntropy{}, NewAdam(0.01), FitConfig{Epochs: 400, Seed: 1}); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for i, x := range inputs {
		if got := Argmax(net.Forward(x)); got != Argmax(targets[i]) {
			t.Errorf("XOR(%v) = %d, want %d", x, got, Argmax(targets[i]))
		}
	}
}

func TestFitErrors(t *testing.T) {
	net := &Network{}
	if _, err := Fit(net, nil, nil, MSE{}, &SGD{LR: 0.1}, FitConfig{Epochs: 1}); err == nil {
		t.Error("empty inputs should error")
	}
	if _, err := Fit(net, [][]float64{{1}}, nil, MSE{}, &SGD{LR: 0.1}, FitConfig{Epochs: 1}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := Fit(net, [][]float64{{1}}, [][]float64{{1}}, MSE{}, &SGD{LR: 0.1}, FitConfig{Epochs: 0}); err == nil {
		t.Error("zero epochs should error")
	}
}

func TestSGDMomentum(t *testing.T) {
	// Minimize f(w) = w² from w=1; momentum should still converge.
	p := NewTensor(1)
	p.Data[0] = 1
	opt := &SGD{LR: 0.1, Momentum: 0.5}
	for i := 0; i < 100; i++ {
		p.Grad[0] = 2 * p.Data[0]
		opt.Step([]*Tensor{p})
	}
	if math.Abs(p.Data[0]) > 1e-3 {
		t.Errorf("momentum SGD stalled at %v", p.Data[0])
	}
}

func TestAdamConverges(t *testing.T) {
	p := NewTensor(2)
	p.Data[0], p.Data[1] = 3, -4
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad[0] = 2 * p.Data[0]
		p.Grad[1] = 2 * p.Data[1]
		opt.Step([]*Tensor{p})
	}
	if math.Abs(p.Data[0]) > 1e-2 || math.Abs(p.Data[1]) > 1e-2 {
		t.Errorf("Adam stalled at %v", p.Data)
	}
}

func TestConvAutoencoderReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim = 32
	ae, err := NewConvAutoencoder(dim, 4, rng)
	if err != nil {
		t.Fatalf("NewConvAutoencoder: %v", err)
	}
	// Two distinct prototype patterns plus noise.
	var inputs [][]float64
	for i := 0; i < 40; i++ {
		x := make([]float64, dim)
		base := i % 2
		for j := range x {
			if (j/8)%2 == base {
				x[j] = 1
			}
			x[j] += rng.NormFloat64() * 0.05
		}
		inputs = append(inputs, x)
	}
	before := reconLoss(ae, inputs)
	if _, err := Fit(ae.Full, inputs, inputs, MSE{}, NewAdam(0.005), FitConfig{Epochs: 60, Seed: 2}); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	after := reconLoss(ae, inputs)
	if after >= before/2 {
		t.Errorf("autoencoder did not learn: %v -> %v", before, after)
	}
	if got := len(ae.Encode(inputs[0])); got != 4 {
		t.Errorf("latent dim = %d, want 4", got)
	}
}

func reconLoss(ae *Autoencoder, inputs [][]float64) float64 {
	var total float64
	for _, x := range inputs {
		l, _ := (MSE{}).Compute(ae.Full.Forward(x), x)
		total += l
	}
	return total / float64(len(inputs))
}

func TestConvAutoencoderErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	if _, err := NewConvAutoencoder(8, 4, rng); err == nil {
		t.Error("tiny input should error")
	}
	if _, err := NewConvAutoencoder(32, 0, rng); err == nil {
		t.Error("zero latent should error")
	}
}

func TestStackedAutoencoder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var inputs [][]float64
	for i := 0; i < 25; i++ {
		x := make([]float64, 12)
		for j := range x {
			x[j] = math.Sin(float64(i+j)) * 0.5
		}
		inputs = append(inputs, x)
	}
	enc, err := StackedAutoencoder(inputs, []int{8, 4}, 30, 0.005, rng)
	if err != nil {
		t.Fatalf("StackedAutoencoder: %v", err)
	}
	out := enc.Forward(inputs[0])
	if len(out) != 4 {
		t.Errorf("encoded dim = %d, want 4", len(out))
	}
	if _, err := StackedAutoencoder(nil, []int{4}, 10, 0.01, rng); err == nil {
		t.Error("no samples should error")
	}
	if _, err := StackedAutoencoder(inputs, nil, 10, 0.01, rng); err == nil {
		t.Error("no widths should error")
	}
	if _, err := StackedAutoencoder(inputs, []int{0}, 10, 0.01, rng); err == nil {
		t.Error("zero width should error")
	}
}

func TestOneHotArgmax(t *testing.T) {
	v := OneHot(2, 4)
	if v[2] != 1 || v[0] != 0 {
		t.Errorf("OneHot = %v", v)
	}
	if Argmax(v) != 2 {
		t.Errorf("Argmax = %d, want 2", Argmax(v))
	}
	if Argmax(nil) != -1 {
		t.Error("Argmax(nil) should be -1")
	}
	out := OneHot(9, 3)
	for _, x := range out {
		if x != 0 {
			t.Error("out-of-range OneHot should be all zeros")
		}
	}
}

func TestNetworkSetTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := &Dropout{P: 0.5, RNG: rng}
	net := &Network{Layers: []Layer{d}}
	net.SetTraining(true)
	if !d.Training {
		t.Error("SetTraining(true) did not reach dropout")
	}
	net.SetTraining(false)
	if d.Training {
		t.Error("SetTraining(false) did not reach dropout")
	}
}
