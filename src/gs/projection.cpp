#include "gs/projection.h"

#include <algorithm>
#include <cmath>

#include "gs/sh.h"

namespace neo
{

Vec3
ewaCovariance2d(const Mat3 &cov3d_cam, const Vec3 &cam, float focal_x,
                float focal_y)
{
    // Jacobian of the perspective projection at the Gaussian center.
    const float inv_z = 1.0f / cam.z;
    const float inv_z2 = inv_z * inv_z;
    Mat3 j{};
    j(0, 0) = focal_x * inv_z;
    j(0, 2) = -focal_x * cam.x * inv_z2;
    j(1, 1) = focal_y * inv_z;
    j(1, 2) = -focal_y * cam.y * inv_z2;
    // Third row zero: we only need the top-left 2x2 of J Sigma J^T.

    Mat3 t = j * cov3d_cam * j.transposed();
    return {t(0, 0) + kCovarianceDilation, t(0, 1),
            t(1, 1) + kCovarianceDilation};
}

std::optional<ProjectedGaussian>
projectGaussian(const Gaussian &g, GaussianId id, const Camera &camera)
{
    return projectGaussian(g, id, camera,
                           camera.worldToCamera().rotationBlock());
}

std::optional<ProjectedGaussian>
projectGaussian(const Gaussian &g, GaussianId id, const Camera &camera,
                const Mat3 &cam_rotation)
{
    Vec3 cam = camera.toCameraSpace(g.position);
    if (cam.z <= kNearPlane)
        return std::nullopt;

    // Rotate the world covariance into camera space.
    const Mat3 &w = cam_rotation;
    Mat3 cov_cam = w * g.covariance() * w.transposed();
    Vec3 cov2d =
        ewaCovariance2d(cov_cam, cam, camera.focalX(), camera.focalY());

    const float a = cov2d.x, b = cov2d.y, c = cov2d.z;
    const float det = a * c - b * b;
    if (det <= 0.0f)
        return std::nullopt;

    ProjectedGaussian out;
    out.id = id;
    out.mean2d = camera.toScreen(cam);
    const float inv_det = 1.0f / det;
    out.conic_a = c * inv_det;
    out.conic_b = -b * inv_det;
    out.conic_c = a * inv_det;
    out.depth = cam.z;
    out.opacity = g.opacity;

    auto [eig_max, eig_min] = symmetricEigenvalues2x2(a, b, c);
    (void)eig_min;
    out.radius_px = std::ceil(3.0f * std::sqrt(std::max(eig_max, 0.0f)));
    if (out.radius_px < 1.0f)
        return std::nullopt;

    out.color = shColor(g, camera.viewDirection(g.position));
    return out;
}

} // namespace neo
