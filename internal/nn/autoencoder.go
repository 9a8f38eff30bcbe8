package nn

import (
	"fmt"
	"math/rand"
)

// Autoencoder pairs an encoder network with a decoder; Full chains both for
// reconstruction training.
type Autoencoder struct {
	Encoder *Network
	Decoder *Network
	Full    *Network
}

// Encode maps an input to its latent embedding (inference mode).
func (a *Autoencoder) Encode(x []float64) []float64 {
	return a.Encoder.Forward(x)
}

// NewConvAutoencoder builds the paper's comparison autoencoder: four 1-D
// convolution layers with ReLU activations (§VI-A) — two strided
// convolutions in the encoder, two transposed convolutions in the decoder —
// with dense projections to and from the latent space. inputLen is the
// fingerprint vector length (number of distinct MACs) and latentDim the
// embedding size.
func NewConvAutoencoder(inputLen, latentDim int, rng *rand.Rand) (*Autoencoder, error) {
	if inputLen < 16 {
		return nil, fmt.Errorf("nn: conv autoencoder needs input length >= 16, got %d", inputLen)
	}
	if latentDim <= 0 {
		return nil, fmt.Errorf("nn: latent dim %d must be positive", latentDim)
	}
	const (
		c1, c2 = 8, 4
		kernel = 5
		stride = 2
	)
	conv1, err := NewConv1D(1, c1, kernel, stride, inputLen, rng)
	if err != nil {
		return nil, err
	}
	len1 := convOutLength(inputLen, kernel, stride)
	conv2, err := NewConv1D(c1, c2, kernel, stride, len1, rng)
	if err != nil {
		return nil, err
	}
	len2 := convOutLength(len1, kernel, stride)
	flat := c2 * len2

	encoder := &Network{Layers: []Layer{
		conv1, &ReLU{},
		conv2, &ReLU{},
		NewDense(flat, latentDim, rng),
	}}

	deconv1, err := NewConvTranspose1D(c2, c1, kernel, stride, len2, rng)
	if err != nil {
		return nil, err
	}
	deconv2, err := NewConvTranspose1D(c1, 1, kernel, stride, deconv1.OutLength(), rng)
	if err != nil {
		return nil, err
	}
	outLen := deconv2.OutLength()
	decoder := &Network{Layers: []Layer{
		NewDense(latentDim, flat, rng), &ReLU{},
		deconv1, &ReLU{},
		deconv2,
		// Transposed convs overshoot the original length by a few
		// positions; crop back to inputLen.
		&crop{want: inputLen, have: outLen},
	}}

	full := &Network{Layers: append(append([]Layer{}, encoder.Layers...), decoder.Layers...)}
	return &Autoencoder{Encoder: encoder, Decoder: decoder, Full: full}, nil
}

// crop trims a vector to the first want elements (and pads zeros on the
// rare shortfall), passing gradient straight through for kept positions.
type crop struct {
	want, have int
}

// Forward implements Layer.
func (c *crop) Forward(x []float64) []float64 {
	out := make([]float64, c.want)
	copy(out, x)
	return out
}

// Backward implements Layer.
func (c *crop) Backward(grad []float64) []float64 {
	out := make([]float64, c.have)
	copy(out, grad)
	return out
}

// Params implements Layer.
func (c *crop) Params() []*Tensor { return nil }

// StackedAutoencoder performs greedy layer-wise pretraining of a dense
// encoder (the SAE of Nowicki & Wietrzykowski), returning the pretrained
// encoder network. Each stage trains a one-hidden-layer autoencoder on the
// previous stage's codes.
func StackedAutoencoder(inputs [][]float64, widths []int, epochsPerLayer int, lr float64, rng *rand.Rand) (*Network, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("nn: stacked autoencoder needs samples")
	}
	if len(widths) == 0 {
		return nil, fmt.Errorf("nn: stacked autoencoder needs at least one width")
	}
	cur := inputs
	encoder := &Network{}
	inDim := len(inputs[0])
	for li, w := range widths {
		if w <= 0 {
			return nil, fmt.Errorf("nn: width %d at layer %d must be positive", w, li)
		}
		enc := NewDense(inDim, w, rng)
		act := &Tanh{}
		dec := NewDense(w, inDim, rng)
		stage := &Network{Layers: []Layer{enc, act, dec}}
		if _, err := Fit(stage, cur, cur, MSE{}, NewAdam(lr), FitConfig{Epochs: epochsPerLayer, Seed: int64(li) + 1}); err != nil {
			return nil, fmt.Errorf("nn: pretrain layer %d: %w", li, err)
		}
		// Freeze the encoder half into the stack and re-encode samples.
		encLayer := &Network{Layers: []Layer{enc, &Tanh{}}}
		next := make([][]float64, len(cur))
		for i, x := range cur {
			out := encLayer.Forward(x)
			next[i] = append([]float64(nil), out...)
		}
		cur = next
		encoder.Layers = append(encoder.Layers, enc, &Tanh{})
		inDim = w
	}
	return encoder, nil
}
