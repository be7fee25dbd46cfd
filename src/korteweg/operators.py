"""Discrete differential calculus: gradient, divergence, Laplacian.

Two interchangeable discretizations:

* ``Scheme.SPECTRAL`` -- Fourier differentiation on periodic grids by real
  half-spectrum transforms; the Nyquist mode is dropped on every axis so
  odd derivatives stay real and skew-symmetric.  A divergence transforms
  each component once and sums in Fourier space before one inverse.
  Every transform here and in :mod:`korteweg.elliptic` goes through
  ``_Calculus.forward``/``inverse``, which call the gufuncs of
  ``numpy.fft._pocketfft_umath`` directly, without numpy.fft's Python
  wrappers: the same factors (1 forward, 1/n per axis inverse) and axis
  order, so the same bits as ``rfft``/``irfft`` of the last axis of a
  stack of rows on a 1-D grid and as ``rfftn``/``irfftn`` on a 2-D grid.
* ``Scheme.FD2`` -- second-order centered differences.  One ghost rule,
  ``_Calculus._neighbours``, gives every FD2 kernel (here and the Neumann
  operator of :mod:`korteweg.elliptic`) a node's neighbours: wraparound on
  periodic grids, even reflection f[-1] = f[0], f[n] = f[n-1] on bounded
  1-D grids (consistent with homogeneous Neumann data).

All operators are linear and act node-wise on the stored arrays.  Public
functions return validated fields; the array kernels are the methods of
``_Calculus``, one grid's calculus under one discretization, which builds
once everything an evaluation reuses: i k per axis, the dealias mask, the
shape, whether rows stack and, on first use, the FD2 ghost indices, the
inverse symbol of -div(grad .), the 1-D antiderivative symbol and the
checkerboard null modes of the derivatives.  ``_calculus(grid, d)`` caches
one per pair and is the only per-grid cache.  Each public function, here and in
:mod:`korteweg.tensors`, :mod:`korteweg.elliptic` and
:mod:`korteweg.models`, looks it up once and passes it down; a right-hand
side binds one per run.  Under the spectral scheme a non-periodic grid is
refused.  ``numpy.fft`` is named only here: its frequency helpers, and
the gufuncs that ``_Calculus.__init__`` binds (``rfft_n_even`` or
``rfft_n_odd`` by the parity of the last axis).  Patching the two methods
sees every transform.

Three multi-array kernels serve the dependency levels of a right-hand side
(:mod:`korteweg.models`): ``grads`` takes the gradients of several arrays,
``velocity_level`` (spectral) grad rho, div u and a symbol's image of u^
as spectra, and ``conservation_rates`` the divergences of a conservation
law's flux, plus those spectra before the inverse.
On a 1-D grid every derivative runs on a stack of rows: spectrally one
forward and one inverse call for all of them (at N = 256 the cost per
call, not the FFT work, dominates, and a stacked call gives each row the
bits of a call of its own), and ``conservation_rates`` returns the
rates as one (1 + dim, N) array, the stage layout of
:mod:`korteweg.timestepping`.  In 2-D they run the per-array kernels in
turn and return one array per component: a stacked ``rfftn`` over 5
arrays of 128 x 128 measured slower than 5 calls.

The 2-D spectral kernels (``velocity_level``, ``div``/``div_spectra``,
``conservation_rates``) write every array they make, except the rates,
into a workspace through numpy's ``out=``, transforms included, and each
inverse makes its axis-0 pass in a half spectrum of it.  A right-hand
side binds one ``_Workspace`` per run: grid-shaped real and half-spectrum
buffers, taken back as their values die, so the dependency levels share
them and an evaluation makes no new one after the first.  The default
``_FRESH`` has no buffers: each ``out=`` is None and numpy (or the
transform) allocates afresh, which is how every public function runs the
same kernels.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import ConfigError
from .fields import Components, ScalarField, SymTensorField, VectorField
from .grids import Discretization, Grid, Scheme

_AXIS0 = [(0,), (), (0,)]   # a pocketfft gufunc's core axes for a pass along axis 0


def _half_freqs(grid: Grid, unit: bool = False):
    """Per axis of the rfftn half spectrum (the last axis halved): n, the sample
    frequencies at spacing h (1/n if ``unit``: the mode numbers) and the shape
    that broadcasts them."""
    for axis, (n, h) in enumerate(zip(grid.n, grid.h)):
        d = 1.0 / n if unit else h
        f = np.fft.rfftfreq(n, d=d) if axis == grid.dim - 1 else np.fft.fftfreq(n, d=d)
        yield n, f, [-1 if a == axis else 1 for a in range(grid.dim)]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Fresh:
    """No workspace: every buffer is None, so each ``out=`` it fills is allocated
    afresh, by numpy or by the transform, and ``give`` keeps nothing."""

    def real(self) -> None:
        return None

    half = real

    def give(self, *arrays) -> None:
        pass


_FRESH = _Fresh()


class _Workspace:
    """Real grid-shaped and complex half-spectrum buffers that one bound right-hand
    side reuses across its evaluations, as the ``out=`` of its numpy calls.

    ``real``/``half`` hand out a free buffer, made when none is free; ``give``
    takes buffers back once their values are dead.  So the dependency levels of
    an evaluation share the buffers, and after the first evaluation no call
    makes a new one.  A kernel gives back only what it took itself or what it
    was handed to consume.
    """

    def __init__(self, ops: "_Calculus"):
        self.shape = ops.shape
        self.half_shape = (*ops.shape[:-1], ops.shape[-1] // 2 + 1)
        self._real, self._half = [], []

    def real(self) -> np.ndarray:
        return self._real.pop() if self._real else np.empty(self.shape)

    def half(self) -> np.ndarray:
        return self._half.pop() if self._half else np.empty(self.half_shape, dtype=complex)

    def give(self, *arrays) -> None:
        """Take back buffers whose values are dead; None entries are skipped."""
        for a in arrays:
            if a is not None:
                (self._half if a.dtype.kind == "c" else self._real).append(a)


def _total(terms):
    """The sum of a non-empty sequence of arrays, from its first term (no 0 + ...)."""
    terms = iter(terms)
    out = next(terms)
    for t in terms:
        out = out + t
    return out


class _Calculus:
    """The discrete calculus of one grid under one discretization.

    Everything an evaluation reuses is built once here, as read-only arrays:
    with the calculus, i k per axis ``ik`` (spectral) and the 2/3-rule mask
    ``keep`` (when dealiasing); on first use, the FD2 ghost indices ``ghost``
    and, on a periodic grid, the inverse symbol ``inv_sym`` of -div(grad .)
    (for :mod:`korteweg.elliptic` and the stress symbol), the 1-D
    antiderivative symbol ``antideriv`` and the checkerboard null modes
    ``checkerboards`` (for :mod:`korteweg.elliptic`), so a calculus holds
    only what its grid uses.  It also fixes the shape, whether the
    multi-array kernels stack their rows (on a 1-D grid) and the gufuncs and
    factors of its transforms.  A right-hand side binds one per run;
    :func:`_calculus` caches one per (grid, discretization) for everything
    else.  It refuses a non-periodic grid under the spectral scheme.
    """

    def __init__(self, grid: Grid, d: Discretization):
        d.require_compatible(grid)
        self.grid, self.dim, self.shape = grid, grid.dim, grid.shape
        self.spectral = d.scheme is Scheme.SPECTRAL
        self.stacks = grid.dim == 1
        n = grid.n[-1]
        self._rfft = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd
        self._half_n, self._inv_n = n // 2 + 1, tuple(1.0 / m for m in grid.n)
        self.ik = self._wavenumbers() if self.spectral else ()
        self.keep = None
        if d.dealias:
            keep = np.ones((), dtype=bool)
            for n, f, shape in _half_freqs(grid, unit=True):
                keep = keep & (np.abs(f) <= n / 3.0).reshape(shape)
            self.keep, self.drop = _read_only(keep), _read_only(~keep)

    def _wavenumbers(self) -> tuple[np.ndarray, ...]:
        """i k per axis on the half spectrum, zero at every axis's Nyquist mode."""
        ik = []
        for n, f, shape in _half_freqs(self.grid):
            k = 2.0 * np.pi * f
            if n % 2 == 0:
                k[n // 2] = 0.0
            ik.append(_read_only((1j * k).reshape(shape)))
        return tuple(ik)

    @cached_property
    def ghost(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The FD2 ghost rule as each node's previous and next node per axis:
        wraparound, or even reflection f[-1] = f[0], f[n] = f[n - 1] on a bounded axis."""
        mode = "wrap" if self.grid.is_periodic else "clip"
        return tuple(tuple(_read_only(i.take(i + step, mode=mode)) for step in (-1, 1))
                     for i in map(np.arange, self.grid.n))

    @cached_property
    def inv_sym(self) -> np.ndarray:
        """1 / the half-spectrum symbol of -div(grad .) on this periodic grid, zero on
        its null modes: |k|^2 spectrally, sum (sin(k h) / h)^2 for FD2, with k
        Nyquist-zeroed as in the spectral derivatives."""
        sym = sum(ik.imag * ik.imag if self.spectral else (np.sin(ik.imag * h) / h) ** 2
                  for ik, h in zip(self.ik or self._wavenumbers(), self.grid.h))
        inv = np.zeros_like(sym)
        np.divide(1.0, sym, out=inv, where=sym > 0.0)
        return _read_only(inv)

    @cached_property
    def antideriv(self) -> np.ndarray:
        """The half-spectrum symbol of the pseudo-inverse of d/dx on this 1-D periodic
        grid: 1 / (i k) spectrally, 1 / (i sin(k h) / h) for FD2, zero on the
        derivative's null modes (the mean and the Nyquist mode)."""
        k = (self.ik or self._wavenumbers())[0].imag
        sym = k if self.spectral else np.sin(k * self.grid.h[0]) / self.grid.h[0]
        inv = np.zeros(sym.shape, dtype=complex)
        np.divide(-1j, sym, out=inv, where=sym != 0.0)
        return _read_only(inv)

    @cached_property
    def checkerboards(self) -> tuple[np.ndarray, ...]:
        """The +-1 grid arrays besides constants that every first derivative of this
        periodic grid kills: (-1)^i along each even axis and their products."""
        modes = [np.ones(self.shape)]
        for axis, n in enumerate(self.grid.n):
            if n % 2 == 0:
                sign = (1.0 - 2.0 * (np.arange(n) % 2)).reshape(
                    [-1 if a == axis else 1 for a in range(self.dim)])
                modes += [m * sign for m in modes]
        return tuple(_read_only(m) for m in modes[1:])

    def _neighbours(self, values: np.ndarray,
                    axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(previous, this, next) node values along ``axis`` under the FD2 ghost rule."""
        prev, nxt = self.ghost[axis]
        return values.take(prev, axis=axis), values, values.take(nxt, axis=axis)

    def _fd2_deriv(self, values: np.ndarray, axis: int) -> np.ndarray:
        prev, _, nxt = self._neighbours(values, axis)
        return (nxt - prev) / (2.0 * self.grid.h[axis])

    def forward(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The half spectrum of a real grid array, into ``out`` if given: numpy's
        ``rfft`` of the last axis of every row of a stack on a 1-D grid, its
        ``rfftn`` of one array on a 2-D grid (the last axis, then axis 0 in place)."""
        if out is None:
            out = np.empty((*values.shape[:-1], self._half_n), dtype=complex)
        self._rfft(values, 1.0, out=out)
        if not self.stacks:
            _pocketfft.fft(out, 1.0, out=out, axes=_AXIS0)
        return out

    def inverse(self, hat: np.ndarray, out: np.ndarray | None = None,
                ws=_FRESH) -> np.ndarray:
        """The grid array of a half spectrum, into ``out`` if given, ``hat`` left
        unwritten: numpy's ``irfft`` of every row of a stack on a 1-D grid, its
        ``irfftn`` on a 2-D grid, whose axis-0 pass runs in a half spectrum of ``ws``."""
        if out is None:
            out = np.empty((*hat.shape[:-1], self.shape[-1]))
        if self.stacks:
            return _pocketfft.irfft(hat, self._inv_n[0], out=out)
        tmp = ws.half()
        if tmp is None:
            tmp = np.empty(hat.shape, dtype=complex)
        _pocketfft.irfft(_pocketfft.ifft(hat, self._inv_n[0], out=tmp, axes=_AXIS0),
                         self._inv_n[1], out=out)
        ws.give(tmp)
        return out

    def _spectra(self, t: Components, masked: bool = False, ws=_FRESH) -> list[np.ndarray]:
        """The half spectrum of each component, in ``ws``; ``masked`` zeroes every
        mode the 2/3 rule drops (``drop``)."""
        hats = [self.forward(c, ws.half()) for c in t]
        if masked:
            for h in hats:
                np.copyto(h, 0.0, where=self.drop)
        return hats

    def _deriv_rows(self, rows) -> np.ndarray:
        """d/dx of one 1-D grid array, or of every row of a stack of them at once
        (spectral: one forward and one inverse transform call for all rows)."""
        if not self.spectral:
            return self._fd2_deriv(rows, -1)
        return self.inverse(self.ik[0] * self.forward(rows))

    def derivs(self, values: np.ndarray) -> Components:
        """The gradient of one array.  Spectral: one forward transform, one inverse per axis."""
        if self.stacks:   # 1-D: the one derivative
            return (self._deriv_rows(values),)
        if not self.spectral:
            return tuple(self._fd2_deriv(values, axis) for axis in range(self.dim))
        fhat = self.forward(values)
        return tuple(self.inverse(ik * fhat) for ik in self.ik)

    def div_spectra(self, hats, rows: int, ws=_FRESH, addend=None, out=None) -> Components:
        """Row-wise divergence from the half spectra ``hats`` (an iterable) of a stored
        tensor, plus ``addend``'s spectrum per row: one inverse per row, into the
        arrays of ``out`` (None: fresh arrays).

        Each spectrum is drawn when a row first needs it and overwritten; ``ws``
        takes it back after its last row, each addend once added, and the buffer
        that holds i k_j hats[i + j] while a later row still reads hats[i + j].
        """
        ik, dim, hats, out = self.ik, self.dim, iter(hats), out or (None,) * rows
        drawn, divs, tmp = [], [], ws.half() if rows > 1 else None
        for i in range(rows):
            drawn += [next(hats) for _ in range(i + dim - len(drawn))]
            div_hat = np.multiply(ik[0], drawn[i], out=drawn[i])
            for j in range(1, dim):
                h = drawn[i + j]
                div_hat += np.multiply(ik[j], h, out=tmp if i < rows - 1 else h)
            if addend is not None:
                div_hat += addend[i]
                ws.give(addend[i])
            divs.append(self.inverse(div_hat, out[i], ws))
            ws.give(div_hat)
        ws.give(tmp, *drawn[rows:])
        return tuple(divs)

    def div_tensor(self, t: Components, rows: int = 0, ws=_FRESH) -> Components:
        """Row-wise divergence of a stored symmetric tensor: row i is t[i:i + dim].

        ``rows`` = 1 takes the divergence of a vector.  Spectral: each component
        is transformed once, each row summed in Fourier space before one inverse;
        in 2-D the spectra are buffers of ``ws`` and so are the rows.  On a 1-D
        grid it is the derivative of the one component.
        """
        if self.stacks:
            return (self._deriv_rows(t[0]),)
        rows = rows or self.dim
        if self.spectral:
            return self.div_spectra(self._spectra(t, ws=ws), rows, ws,
                                    out=[ws.real() for _ in range(rows)])
        axes = range(self.dim)
        return tuple(_total(self._fd2_deriv(t[i + j], j) for j in axes)
                     for i in range(rows))

    def div(self, v: Components, ws=_FRESH) -> np.ndarray:
        """Divergence of a vector given by its component arrays (in 2-D spectral, a
        buffer of ``ws``)."""
        return self.div_tensor(v, 1, ws)[0]

    def grads(self, arrays: Components) -> tuple[Components, ...]:
        """The gradient of each array, as :meth:`derivs` gives it.

        1-D: one stacked derivative of all of them (spectral: one forward and
        one inverse transform).
        """
        if not self.stacks:
            return tuple(self.derivs(a) for a in arrays)
        return tuple((row,) for row in self._deriv_rows(np.array(arrays)))

    def velocity_level(self, u: Components, r: np.ndarray, shear, bulk, div_u: bool,
                       ws=_FRESH):
        """Level 1 of a spectral right-hand side: (grad rho, div u if ``div_u``
        else None, addend), the addend being shear u^_i + i k_i (bulk (div u)^)
        per momentum row as a half spectrum (``bulk`` None: all in ``shear``).

        1-D: one stacked transform of (u, rho) each way.  2-D: every array is a
        buffer of ``ws``, and the addend is formed in place in u^.
        """
        ik = self.ik
        if self.stacks:
            hats = self.forward(np.array((*u, r)))
            rows = self.inverse(ik[0] * (hats if div_u else hats[1:]))
            return (rows[-1],), rows[0] if div_u else None, shear * hats[:1]
        addend = self._spectra(u, ws=ws)   # u^, turned into the addend in place
        rhat, tmp = self.forward(r, ws.half()), ws.half()
        gr = tuple(self.inverse(np.multiply(k, rhat, out=tmp), ws.real(), ws) for k in ik)
        div_hat = np.multiply(ik[0], addend[0], out=rhat)
        for k, h in zip(ik[1:], addend[1:]):
            div_hat += np.multiply(k, h, out=tmp)
        divu = self.inverse(div_hat, ws.real(), ws) if div_u else None
        div_hat *= bulk
        for k, h in zip(ik, addend):
            h *= shear
            h += np.multiply(k, div_hat, out=tmp)
        ws.give(div_hat, tmp)
        return gr, divu, addend

    def conservation_rates(self, mass: Components, stress: Components,
                           advective: Components, addend=None, ws=_FRESH):
        """The rates (-div mass, *div(stress - advective)) of a conservation law for
        (rho, m) with flux [mass; advective - stress], as rows of fresh arrays:
        one (1 + dim, N) array on a 1-D grid, a tuple of arrays otherwise.

        ``mass`` is a vector, ``stress`` and ``advective`` stored symmetric tensors,
        none of them written; ``addend`` (spectral) holds half spectra added to the
        momentum rows.  Under dealiasing the 2/3 rule masks ``mass`` and
        ``advective`` (the quadratic terms) in the spectra the divergences take.
        1-D: every row in one stacked derivative (spectral: one forward and one
        inverse for both divergences).  Otherwise the divergence of ``mass``, then
        the rest; spectrally every spectrum and stress - advective are buffers of
        ``ws``.
        """
        if not self.stacks:
            if not self.spectral:
                return (-self.div(mass),
                        *self.div_tensor(tuple(s - a for s, a in zip(stress, advective))))
            masked = self.keep is not None
            rate, = self.div_spectra(self._spectra(mass, masked, ws), 1, ws)
            np.negative(rate, out=rate)

            def flux_spectra():
                for s, a in zip(stress, advective):
                    if masked:   # stress^ - the masked advective^
                        h, (d,) = self.forward(s, ws.half()), self._spectra((a,), True, ws)
                        h -= d
                    else:
                        d = np.subtract(s, a, out=ws.real())
                        h = self.forward(d, ws.half())
                    ws.give(d)
                    yield h
            return (rate, *self.div_spectra(flux_spectra(), self.dim, ws, addend))
        keep = self.keep
        if keep is None:
            rows = np.empty((2, *self.shape))
            rows[0] = mass[0]
            np.subtract(stress[0], advective[0], out=rows[1])
        if not self.spectral:
            rates = self._fd2_deriv(rows, -1)
        else:
            if keep is None:
                hats = self.ik[0] * self.forward(rows)
            else:
                hm, hs, ha = self.forward(np.array((*mass, *stress, *advective)))
                hats = self.ik[0] * np.array((np.where(keep, hm, 0.0),
                                              hs - np.where(keep, ha, 0.0)))
            if addend is not None:
                hats[1:] += addend
            rates = self.inverse(hats)
        np.negative(rates[0], out=rates[0])
        return rates


_calculus = lru_cache(maxsize=128)(_Calculus)


def grad(f: ScalarField, d: Discretization) -> VectorField:
    """Discrete gradient of a scalar field."""
    return VectorField(f.grid, _calculus(f.grid, d).derivs(f.values))


def div(v: VectorField, d: Discretization) -> ScalarField:
    """Discrete divergence of a vector field."""
    return ScalarField(v.grid, _calculus(v.grid, d).div(v.components))


def div_tensor(t: SymTensorField, d: Discretization) -> VectorField:
    """Row-wise divergence of a symmetric tensor: (div T)_i = sum_j d_j T_ij."""
    return VectorField(t.grid, _calculus(t.grid, d).div_tensor(t.components))


def laplacian(f: ScalarField, d: Discretization) -> ScalarField:
    """Discrete Laplacian.

    Spectral: multiplication by (i k)^2 with the same Nyquist mask as the
    first derivatives, so it equals div(grad(.)) exactly.  FD2: the compact
    3-point stencil per axis under the ghost rule.
    """
    grid, ops = f.grid, _calculus(f.grid, d)
    if ops.spectral:
        fhat = ops.forward(f.values)
        return ScalarField(grid, ops.inverse(sum(ik * ik for ik in ops.ik) * fhat))
    total = np.zeros(grid.shape)
    for axis in range(grid.dim):
        prev, this, nxt = ops._neighbours(f.values, axis)
        total += (nxt - 2.0 * this + prev) / grid.h[axis] ** 2
    return ScalarField(grid, total)


def mean(f: ScalarField) -> float:
    """Grid average (trapezoid rule collapses to the plain average here)."""
    return float(f.values.mean())


def dealias_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    """2/3-rule filter: zero every mode above n/3 on any axis."""
    if not grid.is_periodic:
        raise ConfigError("dealiasing is defined on periodic grids only")
    ops = _calculus(grid, Discretization(Scheme.SPECTRAL, dealias=True))
    return ops.inverse(ops._spectra((values,), True)[0])
