/**
 * @file
 * Scene representation for 3D Gaussian Splatting: the learnable per-Gaussian
 * parameters of Kerbl et al. (position, anisotropic scale + rotation,
 * opacity, spherical-harmonics color) and the projected 2D form produced by
 * the feature-extraction stage.
 */

#ifndef NEO_GS_GAUSSIAN_H
#define NEO_GS_GAUSSIAN_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/math.h"

namespace neo
{

/** Identifier of a Gaussian within its scene (index into GaussianScene). */
using GaussianId = uint32_t;

/** Number of spherical-harmonics coefficients per color channel (degree 2). */
constexpr int kShCoeffsPerChannel = 9;

/**
 * One 3D Gaussian primitive. The covariance is parameterized as
 * Sigma = R S S^T R^T with per-axis scales S and unit quaternion R,
 * exactly as in the original 3DGS formulation.
 */
struct Gaussian
{
    Vec3 position;
    Vec3 scale{0.01f, 0.01f, 0.01f};
    Quat rotation;
    float opacity = 0.5f;
    /** SH color coefficients, kShCoeffsPerChannel per RGB channel. */
    float sh[3][kShCoeffsPerChannel] = {};

    /** World-space 3D covariance of this Gaussian. */
    Mat3 covariance() const
    {
        return covarianceFromScaleRotation(scale, rotation);
    }
};

/**
 * A scene is a flat array of Gaussians; GaussianId indexes into it.
 * Scenes also carry a bounding radius used by trajectory generation.
 */
struct GaussianScene
{
    std::vector<Gaussian> gaussians;
    Vec3 center;
    float bounding_radius = 1.0f;
    std::string name = "unnamed";

    size_t size() const { return gaussians.size(); }
    bool empty() const { return gaussians.empty(); }
    const Gaussian &operator[](size_t i) const { return gaussians[i]; }
    Gaussian &operator[](size_t i) { return gaussians[i]; }
};

/**
 * Exponent of the Gaussian falloff at pixel offset (dx, dy): the negated
 * conic quadratic form for inverse-covariance coefficients (a, b, c).
 * Every blend path (ProjectedGaussian::falloff, the rasterizer's scalar
 * reference and its subtile-blocked kernel) MUST evaluate this one
 * function — the operation order is part of the bit-equality contract
 * between them.
 */
inline float
conicPower(float a, float b, float c, float dx, float dy)
{
    return -0.5f * (a * dx * dx + c * dy * dy) - b * dx * dy;
}

/**
 * A Gaussian after frustum culling and feature extraction: projected to the
 * image plane with view-dependent color resolved. Binning copies its fields
 * into the frame's id-indexed feature arrays (BinnedFrame), which are what
 * the rasterizer consumes.
 */
struct ProjectedGaussian
{
    GaussianId id = 0;
    Vec2 mean2d;          //!< pixel-space center
    /** Inverse 2D covariance (conic) coefficients: a*dx^2+2b*dx*dy+c*dy^2. */
    float conic_a = 1.0f;
    float conic_b = 0.0f;
    float conic_c = 1.0f;
    float radius_px = 0.0f; //!< 3-sigma screen-space extent
    float depth = 0.0f;     //!< camera-space z used for sorting
    Vec3 color;             //!< view-dependent RGB from SH
    float opacity = 0.0f;

    /** conicPower of this Gaussian's coefficients (see above). */
    float
    falloffPower(float dx, float dy) const
    {
        return conicPower(conic_a, conic_b, conic_c, dx, dy);
    }

    /** Unnormalized Gaussian falloff at pixel offset (dx, dy) from center. */
    float
    falloff(float dx, float dy) const
    {
        float power = falloffPower(dx, dy);
        return power > 0.0f ? 0.0f : std::exp(power);
    }
};

/**
 * Recompute @p scene center and bounding radius from its Gaussians
 * (positions plus 3-sigma extents).
 */
void recomputeBounds(GaussianScene &scene);

} // namespace neo

#endif // NEO_GS_GAUSSIAN_H
