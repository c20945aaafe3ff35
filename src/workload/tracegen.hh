/**
 * @file
 * Synthetic sparse-training trace generation (substitutes the paper's
 * GPU-collected ReSprop/SWAT traces; see DESIGN.md).
 *
 * For a given layer, phase, and sparsity profile, produces the
 * (kernel plane, image plane) CSR pair one PE task group would see:
 *
 *  - forward  W * A:   kernel = sparsified W[k][c] (R x S);
 *                      image  = sparsified A[c] embedded in padding;
 *  - backward R(W) * G_A: kernel = rotated sparsified W[k][c];
 *                      image  = sparsified G_A[k] zero-dilated by the
 *                      layer stride and re-padded;
 *  - update   G_A * A: kernel = sparsified G_A[k] (used with kernel
 *                      dilation = stride); image = padded A[c].
 *
 * Values are drawn i.i.d. standard normal; sparsity is imposed by
 * Bernoulli masking (ReSprop/SWAT-style targets) or magnitude top-K
 * (the paper's synthetic ResNet50/transformer/RNN path). Everything is
 * keyed by a deterministic seed hierarchy so runs reproduce bit-for-bit.
 */

#ifndef ANTSIM_WORKLOAD_TRACEGEN_HH
#define ANTSIM_WORKLOAD_TRACEGEN_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "tensor/csr.hh"
#include "util/rng.hh"
#include "workload/layer.hh"

namespace antsim {

/** How a target sparsity is imposed on a plane. */
enum class SparsifyMethod {
    /** i.i.d. Bernoulli mask at the target rate. */
    Bernoulli,
    /** Keep the top (1 - sparsity) fraction by magnitude. */
    TopK,
};

/**
 * Everything that determines a generated plane besides the Rng state:
 * the inner generated dims, how it is sparsified, how it is embedded
 * into the padded/dilated output plane, and whether the CSR is rotated
 * by 180 degrees (backward-phase kernels).
 */
struct PlaneRecipe
{
    /** Generated (inner) plane height. */
    std::uint32_t height = 0;
    /** Generated (inner) plane width. */
    std::uint32_t width = 0;
    /** Target sparsity in [0, 1]. */
    double sparsity = 0.0;
    /** Masking method. */
    SparsifyMethod method = SparsifyMethod::Bernoulli;
    /** Embedded plane height (== height when not embedded). */
    std::uint32_t outHeight = 0;
    /** Embedded plane width (== width when not embedded). */
    std::uint32_t outWidth = 0;
    /** Embedding border offset. */
    std::uint32_t offset = 0;
    /** Embedding dilation (backward-phase zero-dilation). */
    std::uint32_t dilation = 1;
    /** Rotate the final CSR by 180 degrees (backward kernels). */
    bool rotate = false;

    /** Recipe for a plane used as-is (no embedding, no rotation). */
    static PlaneRecipe
    plain(std::uint32_t height, std::uint32_t width, double sparsity,
          SparsifyMethod method)
    {
        return {height, width, sparsity, method, height, width, 0, 1,
                false};
    }
};

/**
 * Generate the plane described by (@p recipe, @p rng) as CSR, written
 * straight into one arena slab. The plane and the Rng state it leaves
 * are those of drawing the dense inner plane, sparsifying it
 * (bernoulliPlane or topKSparsify over randomDensePlane), quantizing
 * to bf16, embedding, compressing and rotating; top-K skips the
 * Box-Muller transform of cells that provably cannot be kept
 * (docs/MODEL.md Sec. 10, tests/census_property_test.cc).
 */
CsrMatrix generateCsrPlane(const PlaneRecipe &recipe, Rng &rng);

/**
 * Magnitude cutoff B of the top-K filter for a plane keeping @p keep
 * of @p total cells; 0 means the plane is generated unfiltered. B is a
 * float whose two-sided tail P(|N| > B) is the keep share plus a
 * 3-sigma binomial margin, so fewer than @p keep cells beat it -- which
 * forces the unfiltered rerun -- in under 0.1% of planes. It is +inf
 * when nothing is kept: then no cell needs its transform. B only sets
 * how much work is skipped; the plane never depends on it.
 */
float topKFilterCutoff(std::size_t total, std::size_t keep);

/**
 * Process-wide number of generateCsrPlane calls (a relaxed atomic).
 * Reported in the run report's profile section only, never in
 * NetworkStats.
 */
std::uint64_t tracePlanesGenerated();

/** Target sparsities of the three training tensors. */
struct SparsityProfile
{
    /** Weight sparsity (all phases). */
    double weight = 0.0;
    /** Activation sparsity. */
    double act = 0.0;
    /** Activation-gradient sparsity. */
    double grad = 0.0;
    /** Masking method. */
    SparsifyMethod method = SparsifyMethod::Bernoulli;

    /**
     * SWAT-style: weights and activations sparsified to the target;
     * the activation gradients inherit the activations' ReLU zero mask
     * (Sec. 2.1), so they reach (at least) the same sparsity.
     */
    static SparsityProfile
    swat(double target)
    {
        return {target, target, target, SparsifyMethod::Bernoulli};
    }

    /** ReSprop-style: sparse gradients, given activation sparsity. */
    static SparsityProfile
    resprop(double grad_sparsity, double act_sparsity)
    {
        return {0.0, act_sparsity, grad_sparsity,
                SparsifyMethod::Bernoulli};
    }

    /** Synthetic top-K sparsification of all tensors (ResNet50 path). */
    static SparsityProfile
    topK(double target)
    {
        return {target, target, target, SparsifyMethod::TopK};
    }

    /** Fully dense tensors (Fig. 10's dense baseline). */
    static SparsityProfile
    dense()
    {
        return {0.0, 0.0, 0.0, SparsifyMethod::Bernoulli};
    }
};

/** A generated (kernel, image) plane pair plus its geometry. */
struct PlanePair
{
    ProblemSpec spec;
    CsrMatrix kernel;
    CsrMatrix image;
};

/**
 * A channel-batched task: one stationary image plane with the kernel
 * stack that streams against it (Sec. 2.3's input-stationary dataflow;
 * see PeModel::runStack). For the forward and update phases the task
 * is per input channel c and the stack spans the K output channels;
 * for the backward phase the task is per output channel k and the
 * stack spans the C input channels (rotated weights).
 */
struct StackTask
{
    ProblemSpec spec;
    /** The task's own freshly generated planes, one per stack entry. */
    std::vector<std::unique_ptr<const CsrMatrix>> kernels;
    std::unique_ptr<const CsrMatrix> image;

    /** Borrowed pointer view for PeModel::runStack. */
    std::vector<const CsrMatrix *>
    kernelPtrs() const
    {
        std::vector<const CsrMatrix *> ptrs;
        ptrs.reserve(kernels.size());
        for (const auto &k : kernels)
            ptrs.push_back(k.get());
        return ptrs;
    }
};

/** Deterministic seed mixing for the trace hierarchy. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c_value = 0);

/**
 * Build the (kernel, image) pair for one sampled (k, c) plane pair of
 * a conv layer in the given phase. @p rng provides all randomness.
 */
PlanePair makeConvPhasePair(const ConvLayer &layer, TrainingPhase phase,
                            const SparsityProfile &profile, Rng &rng);

/** Build the pair for one matmul layer at a uniform sparsity. */
PlanePair makeMatmulPair(const MatmulLayer &layer, double sparsity,
                         SparsifyMethod method, Rng &rng);

/**
 * Number of stacked tasks a layer expands to in a phase: inChannels
 * for forward/update (task per image channel), outChannels for
 * backward (task per gradient channel).
 */
std::uint64_t stackTaskCount(const ConvLayer &layer, TrainingPhase phase);

/**
 * Build one channel-batched task of a conv layer phase. @p rng drives
 * all randomness (image plane plus the whole kernel stack).
 */
StackTask makeConvPhaseTask(const ConvLayer &layer, TrainingPhase phase,
                            const SparsityProfile &profile, Rng &rng);

/**
 * Recipe of a conv phase's image plane (padding/dilation included).
 * The single source of geometric truth for both the trace generator
 * and the analytical estimator (src/estimate), which models the plane
 * *ensemble* the recipe describes instead of sampling instances.
 */
PlaneRecipe convImageRecipe(const ConvLayer &layer, TrainingPhase phase,
                            const SparsityProfile &profile,
                            const PhaseSpecs &specs);

/** Recipe of one kernel-stack plane of a conv phase. */
PlaneRecipe convKernelRecipe(const ConvLayer &layer, TrainingPhase phase,
                             const SparsityProfile &profile,
                             const PhaseSpecs &specs);

} // namespace antsim

#endif // ANTSIM_WORKLOAD_TRACEGEN_HH
