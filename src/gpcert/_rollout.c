/* The benchmark system, and closed-loop RK4 of it under one GP model.
 *
 * The benchmark's nonlinearity f and input gain g are defined here and
 * nowhere else: measurements y = f(x) + eps take f from gpcert_benchmark_f,
 * and the rollout simulates the same f.  The loop integrates
 * x' = A x + b (u + f(x)) with the nominal input
 * u = -theta^T (x - x_ref) + r_ref - mu(x), where mu is the posterior mean of
 * the model (squared exponential, Matern 3/2 or Matern 5/2 at d = 2, from its
 * inputs and weights alpha; an empty model has no rows and mean 0).  x_ref
 * and r_ref are sampled on the half-step grid.  The plant's input is u / g(x),
 * g known exactly, so g cancels from the dynamics; the rollout reports that
 * applied input at every state.
 *
 * Every value is a plain IEEE double expression: sums run left to right, and
 * the library is compiled with -ffp-contract=off, so no multiply-add is fused.
 * tests/oracles.py::scalar_closed_loop repeats each operation on Python
 * floats with math.exp and math.sin, the libm functions called here.
 */
#include <math.h>
#include <stdint.h>

enum { SQUARED_EXPONENTIAL = 1, MATERN32 = 2, MATERN52 = 3 };

#define SQRT3 1.7320508075688772 /* math.sqrt(3.0) */
#define SQRT5 2.23606797749979   /* math.sqrt(5.0) */

/* A scaled distance beyond which exp(-sqrt3 r) and exp(-sqrt5 r) are 0.  The
 * Matern values there are exactly 0, and clamping r keeps their polynomial
 * factor finite, so an overflowing distance gives 0 and not inf * 0. */
#define R_MAX 1e3

struct model {
    int32_t family;
    double sf2, l0, l1;
    int64_t n;
    const double *y, *alpha; /* (n, 2) inputs, row-major, and n weights */
};

/* f(x1, x2) = 1 - sin(2 x1) + 1 / (1 + exp(-x2)) */
static double benchmark_f(double x1, double x2)
{
    return 1.0 - sin(2.0 * x1) + 1.0 / (1.0 + exp(-x2));
}

/* g(x1, x2) = 1 + sin(x2 / 2) / 2, bounded away from zero (minimum 1/2) */
static double benchmark_g(double x2)
{
    return 1.0 + 0.5 * sin(x2 / 2.0);
}

/* The benchmark f at the m rows of x, (m, 2) row-major, into out. */
void gpcert_benchmark_f(int64_t m, const double *x, double *out)
{
    for (int64_t i = 0; i < m; i++)
        out[i] = benchmark_f(x[2 * i], x[2 * i + 1]);
}

/* sum_i k(p, y_i) alpha_i, each k in the operation order of kernels._rows */
static double mean(const struct model *m, double p0, double p1)
{
    double acc = 0.0;
    for (int64_t i = 0; i < m->n; i++) {
        double d0 = (m->y[2 * i] - p0) / m->l0, d1 = (m->y[2 * i + 1] - p1) / m->l1;
        double r2 = d0 * d0 + d1 * d1, r, k;
        if (m->family == SQUARED_EXPONENTIAL) {
            k = exp(r2 * -0.5) * m->sf2;
        } else {
            r = sqrt(r2);
            if (r > R_MAX)
                r = R_MAX;
            if (m->family == MATERN32)
                k = (r * SQRT3 + 1.0) * m->sf2 * exp(r * -SQRT3);
            else
                k = (r * SQRT5 + 1.0 + r * (5.0 / 3.0) * r) * m->sf2 * exp(r * -SQRT5);
        }
        acc += k * m->alpha[i];
    }
    return acc;
}

/* The nominal input at x, with x_ref = (r0, r1) and r_ref = rff */
static double nominal(const struct model *m, const double *theta, double x0, double x1, double r0, double r1,
                      double rff)
{
    return -(theta[0] * (x0 - r0) + theta[1] * (x1 - r1)) + rff - mean(m, x0, x1);
}

/* The closed-loop field at x into out; returns the nominal input there. */
static double field(const struct model *m, const double *A, const double *b, const double *theta,
                    double x0, double x1, double r0, double r1, double rff, double *out)
{
    const double u = nominal(m, theta, x0, x1, r0, r1, rff), v = u + benchmark_f(x0, x1);
    out[0] = (A[0] * x0 + A[1] * x1) + b[0] * v;
    out[1] = (A[2] * x0 + A[3] * x1) + b[1] * v;
    return u;
}

/* Step the loop n times at pitch dt from states[0].
 *
 * ref holds x_ref's two coordinates and r_ref, each at the 2n + 1 half-step
 * times; step k reads samples 2k - 2, 2k - 1 and 2k.  The model is its
 * family, (sf2, l0, l1), N rows of inputs and N weights.  states is
 * (n + 1, 2) and applied n + 1: applied[k] is the input u / g applied at
 * states[k], the one of step k + 1's first stage, and at the last state the
 * input for sample 2n.  Returns 0, or the first step k whose state is not
 * finite; the states from row k and the inputs from row k on are unset.
 */
int64_t gpcert_rollout(int64_t n, double dt, const double *A, const double *b, const double *theta,
                       const double *ref, int32_t family, double sf2, double l0, double l1, int64_t N,
                       const double *inputs, const double *alpha, double *states, double *applied)
{
    const double h = dt / 2.0, h6 = dt / 6.0;
    const double *xr0 = ref, *xr1 = ref + (2 * n + 1), *rr = ref + 2 * (2 * n + 1);
    const struct model m = {family, sf2, l0, l1, N, inputs, alpha};
    double x0 = states[0], x1 = states[1], k1[2], k2[2], k3[2], k4[2];
    for (int64_t k = 1; k <= n; k++) {
        const int64_t a = 2 * k - 2, c = a + 1, e = a + 2;
        applied[k - 1] = field(&m, A, b, theta, x0, x1, xr0[a], xr1[a], rr[a], k1) / benchmark_g(x1);
        field(&m, A, b, theta, x0 + h * k1[0], x1 + h * k1[1], xr0[c], xr1[c], rr[c], k2);
        field(&m, A, b, theta, x0 + h * k2[0], x1 + h * k2[1], xr0[c], xr1[c], rr[c], k3);
        field(&m, A, b, theta, x0 + dt * k3[0], x1 + dt * k3[1], xr0[e], xr1[e], rr[e], k4);
        x0 = x0 + h6 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]);
        x1 = x1 + h6 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]);
        if (!(isfinite(x0) && isfinite(x1)))
            return k;
        states[2 * k] = x0;
        states[2 * k + 1] = x1;
    }
    applied[n] = nominal(&m, theta, x0, x1, xr0[2 * n], xr1[2 * n], rr[2 * n]) / benchmark_g(x1);
    return 0;
}
