/**
 * @file
 * Feature extraction: projecting 3D Gaussians to screen space. Implements
 * the EWA splatting approximation used by 3DGS — the 3D covariance is
 * transformed by the view rotation and the Jacobian of the perspective
 * projection to produce a 2D covariance, from which the conic (inverse
 * covariance) and the 3-sigma screen radius are derived.
 */

#ifndef NEO_GS_PROJECTION_H
#define NEO_GS_PROJECTION_H

#include <optional>

#include "gs/camera.h"
#include "gs/gaussian.h"

namespace neo
{

/** Near plane below which Gaussians are culled. */
constexpr float kNearPlane = 0.05f;

/** Dilation added to the 2D covariance diagonal (antialiasing, as 3DGS). */
constexpr float kCovarianceDilation = 0.3f;

/**
 * Project a single Gaussian.
 *
 * @param g the source Gaussian
 * @param id its scene id, copied into the result
 * @param camera viewing camera
 * @return the projected 2D Gaussian, or std::nullopt if it is behind the
 *         near plane, degenerate, or its opacity contribution vanishes.
 */
std::optional<ProjectedGaussian>
projectGaussian(const Gaussian &g, GaussianId id, const Camera &camera);

/**
 * projectGaussian with the camera's world-to-camera rotation block
 * precomputed — per-frame loops hoist it out of the per-Gaussian body
 * (it only depends on the camera). Results are identical.
 */
std::optional<ProjectedGaussian>
projectGaussian(const Gaussian &g, GaussianId id, const Camera &camera,
                const Mat3 &cam_rotation);

/**
 * EWA 2D covariance of a camera-space Gaussian.
 *
 * @param cov3d_cam covariance already rotated into camera space
 * @param cam camera-space mean
 * @param focal_x focal length in pixels (x)
 * @param focal_y focal length in pixels (y)
 * @return upper-triangular (a, b, c) of the symmetric 2x2 covariance
 */
Vec3 ewaCovariance2d(const Mat3 &cov3d_cam, const Vec3 &cam, float focal_x,
                     float focal_y);

} // namespace neo

#endif // NEO_GS_PROJECTION_H
