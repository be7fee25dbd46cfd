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
  order, so every row of a stack gets the bits of ``rfft``/``irfft`` on a
  1-D grid and of ``rfftn``/``irfftn`` on a 2-D grid.
* ``Scheme.FD2`` -- second-order centered differences.  One ghost rule,
  ``_Calculus.ghost``, gives every FD2 kernel a node's neighbours:
  wraparound on periodic grids, even reflection f[-1] = f[0], f[n] = f[n-1]
  on bounded 1-D grids (consistent with homogeneous Neumann data).  The
  first derivative, behind ``grads``, ``div_tensor`` and the rates, reads it
  as slice stencils (``_Calculus.stencils``): it differences shifted slices
  of its input straight into its output, every node at once over the
  flattened arrays, then the two edge nodes of the axis, so it copies no
  neighbours, and with an ``out=`` allocates nothing beyond numpy's
  buffers for the edge nodes.  The Laplacian takes neighbour copies by the
  same rule.  On a bounded grid even reflection is a zero wall flux, which
  the Neumann operator of :mod:`korteweg.elliptic` writes in face form.

All operators are linear and act node-wise on the stored arrays.  Public
functions return validated fields; the array kernels are the methods of
``_Calculus``, one grid's calculus under one discretization, which builds
once everything an evaluation reuses: i k per axis, the dealias mask, the
shapes and, on first use, the FD2 ghost indices and stencils, the inverse
symbol of -div(grad .), the 1-D antiderivative symbol and the checkerboard
null modes of the derivatives.  Both symbols read one first-derivative
symbol per axis, ``d1`` (k, or sin(k h) / h under FD2).  The symbol itself,
``k2``, is the one definition of |k|^2: the inverse symbol, the stress
symbol of :mod:`korteweg.models` and the spectral Laplacian read it, and it
is formed where it is read, not kept.  ``_calculus(grid, d)`` caches one
per pair and is the only per-grid cache.  Each public function, here and in
:mod:`korteweg.tensors`, :mod:`korteweg.elliptic` and
:mod:`korteweg.models`, looks it up once and passes it down; a right-hand
side binds one per run.  Under the spectral scheme a non-periodic grid is
refused.  ``numpy.fft`` is named only here: its frequency helpers, and
the gufuncs that ``_Calculus.__init__`` binds (``rfft_n_even`` or
``rfft_n_odd`` by the parity of the last axis).  Patching the two methods
sees every transform.

The kernels work on stacks, (k, *shape) arrays of grid arrays, with one
body for 1-D and 2-D grids: ``grads``, ``div_tensor`` and the dependency
levels of a right-hand side (:mod:`korteweg.models`), ``velocity_level``
(grad rho, div u and a symbol's image of u^) and ``conservation_rates``,
whose rates are one (1 + dim, *shape) array, the stage layout of
:mod:`korteweg.timestepping`.  Spectrally each makes one stacked forward
and one stacked inverse call, a 2-D stack taking its axis-0 pass along
axis -2: a stacked call gives each row the bits of a call of its own, and
at N = 256 the cost per call, not the FFT work, dominates an evaluation.

Every array a kernel makes but the rates goes into a workspace through
``out=``, transforms included; a 2-D inverse makes its axis-0 pass in the
dead spectrum its caller names.  A right-hand side on a spectral grid binds
one ``_Workspace`` per run, whose real and half-spectrum stacks, keyed by
row count, the levels share: an evaluation makes no new one after the
first.  Each calculus's ``fresh`` workspace (``_Fresh``), the default,
keeps nothing, so FD2 and every public function run the same kernels.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import prod

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import ConfigError
from .fields import ScalarField, SymTensorField, VectorField
from .grids import Discretization, Grid, Scheme

_AXIS_2 = [(-2,), (), (-2,)]   # a pocketfft gufunc's core axes for a pass along axis -2


def _half_freqs(grid: Grid, unit: bool = False):
    """Per axis of the rfftn half spectrum (the last axis halved): n, the sample
    frequencies at spacing h (1/n if ``unit``: the mode numbers) and the shape
    that broadcasts them."""
    for axis, (n, h) in enumerate(zip(grid.n, grid.h)):
        d = 1.0 / n if unit else h
        f = np.fft.rfftfreq(n, d=d) if axis == grid.dim - 1 else np.fft.fftfreq(n, d=d)
        yield n, f, [-1 if a == axis else 1 for a in range(grid.dim)]


def _pair(first: int, last: int) -> slice:
    """The slice of an axis that picks index ``first``, then index ``last`` (!= first)."""
    stop = last + (1 if last > first else -1)
    return slice(first, None if stop < 0 else stop, last - first)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Workspace:
    """Real and complex half-spectrum buffers that one bound right-hand side reuses
    across its evaluations, as the ``out=`` of its numpy calls.

    ``real(k)``/``half(k)`` hand out a free stack of k grid-shaped (or
    half-spectrum-shaped) rows, one array without k, made when none is free;
    ``give`` takes buffers back once their values are dead.  So the dependency
    levels of an evaluation share the buffers, and after the first evaluation no
    call makes a new one.  A kernel gives back only what it took itself or what
    it was handed to consume, and only whole buffers, never a row of one.
    """

    def __init__(self, ops: "_Calculus"):
        self.shape, self.half_shape = ops.shape, ops.half_shape
        self.real_free, self.half_free = {}, {}   # row count (None: one array) -> buffers
        self._home = {}   # id of each buffer made -> the free list it goes back to

    def real(self, rows: int | None = None) -> np.ndarray:
        try:
            return self.real_free[rows].pop()
        except (KeyError, IndexError):
            return self._new(self.real_free, rows, self.shape, float)

    def half(self, rows: int | None = None) -> np.ndarray:
        try:
            return self.half_free[rows].pop()
        except (KeyError, IndexError):
            return self._new(self.half_free, rows, self.half_shape, complex)

    def _new(self, free: dict, rows: int | None, shape: tuple, dtype) -> np.ndarray:
        a = np.empty(shape if rows is None else (rows, *shape), dtype)
        self._home[id(a)] = free.setdefault(rows, [])
        return a

    def give(self, *arrays) -> None:
        """Take back buffers whose values are dead; None entries are skipped."""
        for a in arrays:
            if a is not None:
                self._home[id(a)].append(a)


class _Fresh:
    """No workspace: a stack is a fresh array, one array None (numpy allocates the
    ``out=`` it fills), and ``give`` keeps nothing; ``_Calculus.fresh`` holds one."""

    def __init__(self, ops: "_Calculus"):
        self.shape, self.half_shape = ops.shape, ops.half_shape

    def real(self, rows: int | None = None) -> np.ndarray | None:
        return None if rows is None else np.empty((rows, *self.shape))

    def half(self, rows: int | None = None) -> np.ndarray | None:
        return None if rows is None else np.empty((rows, *self.half_shape), dtype=complex)

    def give(self, *arrays) -> None:
        pass


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
    and slice stencils ``stencils`` and, on a periodic grid, the inverse
    ``inv_sym`` of the symbol ``k2`` of -div(grad .) (for :mod:`korteweg.elliptic`
    and the stress symbol), the 1-D antiderivative symbol ``antideriv`` and the
    checkerboard null modes ``checkerboards`` (for :mod:`korteweg.elliptic`), so a calculus
    holds only what its grid uses; ``k2`` and ``antideriv`` both read the one
    first-derivative symbol per axis, ``d1``.  It also fixes the grid and
    half-spectrum shapes and the gufuncs and factors of its transforms.  A right-hand side binds
    one per run; :func:`_calculus` caches one per (grid, discretization) for
    everything else.  It refuses a non-periodic grid under the spectral scheme.
    """

    def __init__(self, grid: Grid, d: Discretization):
        d.require_compatible(grid)
        self.grid, self.dim, self.shape, self.h = grid, grid.dim, grid.shape, grid.h
        self.spectral = d.scheme is Scheme.SPECTRAL
        n = grid.n[-1]
        self.half_shape = (*grid.shape[:-1], n // 2 + 1)
        self._rfft = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd
        self._inv_n = tuple(1.0 / m for m in grid.n)
        self.fresh = _Fresh(self)
        # the (i, j), i <= j, of a stored symmetric tensor's components, and the
        # divergence rows of the conservation law's flux stack [m; tensor] as runs
        # (first spectrum read, first row written, rows): div m over m's last
        # spectrum, then the tensor's rows in place, one run in 1-D
        self._pairs = tuple(combinations_with_replacement(range(grid.dim), 2))
        dim = grid.dim
        self._rate_runs = ((0, 0, 2),) if dim == 1 else ((0, dim - 1, 1), (dim, dim, dim))
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

    @property
    def d1(self) -> tuple[np.ndarray, ...]:
        """Per axis, the half-spectrum symbol s of the first derivative on this
        periodic grid, D = i s: k spectrally, sin(k h) / h for FD2, with k
        Nyquist-zeroed as in the spectral derivatives.  Formed on each read, not
        kept (spectrally, read-only views of ``ik``)."""
        return tuple(ik.imag if self.spectral else np.sin(ik.imag * h) / h
                     for ik, h in zip(self.ik or self._wavenumbers(), self.h))

    @property
    def k2(self) -> np.ndarray:
        """The half-spectrum symbol of -div(grad .) on this periodic grid, sum s^2 over
        the axes' ``d1``: |k|^2 spectrally, sum (sin(k h) / h)^2 for FD2.  A fresh
        array on each read: the calculus keeps only its inverse, ``inv_sym``."""
        return _total(d1 * d1 for d1 in self.d1)

    @cached_property
    def inv_sym(self) -> np.ndarray:
        """1 / ``k2``, zero on its null modes."""
        sym = self.k2
        inv = np.zeros_like(sym)
        np.divide(1.0, sym, out=inv, where=sym > 0.0)
        return _read_only(inv)

    @cached_property
    def antideriv(self) -> np.ndarray:
        """The half-spectrum symbol of the pseudo-inverse of d/dx on this 1-D periodic
        grid, 1 / (i s) of its ``d1`` s: 1 / (i k) spectrally, 1 / (i sin(k h) / h)
        for FD2, zero on the derivative's null modes (the mean and the Nyquist mode)."""
        sym = self.d1[0]
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

    @cached_property
    def stencils(self) -> tuple[tuple[tuple[slice, ...], tuple[tuple, ...]], ...]:
        """The FD2 difference f[next] - f[prev] along each axis, on a C-contiguous grid
        array or stack of them, as two (out, next, prev) triples of indices: ``flat``,
        slices of the flattened arrays one shift of the axis's stride apart, give every
        node at once, those at the axis's two edges wrongly (across rows); ``edges``
        then pick those nodes, with the neighbours ``ghost`` gives."""
        stencils = []
        for axis, ((prev, nxt), n) in enumerate(zip(self.ghost, self.grid.n)):
            stride = prod(self.grid.n[axis + 1:])
            flat = (slice(stride, -stride), slice(2 * stride, None), slice(None, -2 * stride))
            rest = (slice(None),) * (self.dim - 1 - axis)
            edges = tuple((Ellipsis, _pair(int(first), int(last)), *rest)
                          for first, last in ((0, n - 1), (nxt[0], nxt[-1]), (prev[0], prev[-1])))
            stencils.append((flat, edges))
        return tuple(stencils)

    def _fd2_deriv(self, values: np.ndarray, axis: int, out=None) -> np.ndarray:
        """The FD2 derivative along grid axis ``axis`` of a grid array, or of every row
        of a stack of them, into ``out`` if given (C-contiguous, apart from
        ``values``): shifted slices of ``values`` differenced straight into it, with
        no neighbour copies, the edge nodes last (``stencils``).  A ``values`` that
        is not C-contiguous is flattened into a copy."""
        out = np.empty(values.shape) if out is None else out
        if not out.flags.c_contiguous:
            raise ValueError("an FD2 derivative writes into a C-contiguous array")
        (at, nxt, prev), edges = self.stencils[axis]
        v, d = values.ravel(), out.ravel()
        np.subtract(v[nxt], v[prev], out=d[at])
        at, nxt, prev = edges
        np.subtract(values[nxt], values[prev], out=out[at])
        out /= 2.0 * self.h[axis]
        return out

    def forward(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The half spectrum of a grid array, or of every row of a stack of them, into
        ``out`` if given: numpy's ``rfft`` of each on a 1-D grid, its ``rfftn`` on a
        2-D grid (the last axis, then axis -2 in place)."""
        if out is None:
            out = np.empty((*values.shape[:-1], self.half_shape[-1]), dtype=complex)
        self._rfft(values, 1.0, out=out)
        if self.dim == 2:
            _pocketfft.fft(out, 1.0, out=out, axes=_AXIS_2)
        return out

    def inverse(self, hat: np.ndarray, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
        """The grid array of a half spectrum, or of every row of a stack of them, into
        ``out`` if given: numpy's ``irfft`` of each on a 1-D grid, its ``irfftn`` on a
        2-D grid, whose axis -2 pass runs in ``work``.  A caller names its own dead
        spectrum there (``hat`` itself: in place); by default the pass allocates,
        which leaves ``hat`` unwritten."""
        if out is None:
            out = np.empty((*hat.shape[:-1], self.shape[-1]))
        if self.dim == 2:
            work = np.empty(hat.shape, dtype=complex) if work is None else work
            hat = _pocketfft.ifft(hat, self._inv_n[0], out=work, axes=_AXIS_2)
        return _pocketfft.irfft(hat, self._inv_n[-1], out=out)

    def grads(self, arrays) -> np.ndarray:
        """The gradient of each array of a stack, as a (k, dim, *shape) array whose row
        (i, j) is d_j arrays[i].  Spectrally one forward and one inverse transform call
        for all of them."""
        a = np.asarray(arrays)
        if not self.spectral:   # each axis's rows one contiguous block
            g = np.empty((self.dim, len(a), *self.shape))
            for axis in range(self.dim):
                self._fd2_deriv(a, axis, out=g[axis])
            return g.swapaxes(0, 1)
        hats = self.forward(a)
        prods = np.empty((len(a), self.dim, *self.half_shape), dtype=complex)
        for axis, ik in enumerate(self.ik):
            np.multiply(ik, hats, out=prods[:, axis])
        del hats   # dead before the inverse makes its output
        return self.inverse(prods, work=prods)

    def derivs(self, values: np.ndarray) -> np.ndarray:
        """The gradient of one array, as a (dim, *shape) stack."""
        return self.grads(values[None])[0]

    def _div_spectra(self, hats: np.ndarray, src: int, dst: int, rows: int, ws) -> np.ndarray:
        """Divergence spectra of ``rows`` consecutive rows of a tensor, written over
        hats[dst:dst + rows]: row i is sum_j i k_j hats[src + i + j].  The terms in
        i k_j, j >= 1, are formed first, each for all rows at once, so the rows may
        overwrite what they read: dst = src, or a dst range apart from
        hats[src:src + rows].  A term goes over the spectra it is formed from where
        no row reads or writes them (a vector's divergence), else into a stack of
        ``ws``."""
        later = []
        for j in range(1, self.dim):
            read = hats[src + j:src + j + rows]
            spare = src + j >= max(src, dst) + rows
            later.append((np.multiply(self.ik[j], read, out=read if spare else ws.half(rows)),
                          spare))
        divs = np.multiply(self.ik[0], hats[src:src + rows], out=hats[dst:dst + rows])
        for t, spare in later:
            divs += t
            if not spare:
                ws.give(t)
        return divs

    def _fd2_divs(self, t: np.ndarray, runs, out: np.ndarray) -> np.ndarray:
        """The FD2 divergence rows of the runs (src, _, rows) of ``t``, one run after
        another, into ``out``: row i of a run is sum_j d_j t[src + i + j]."""
        i = 0
        for src, _, n in runs:
            divs = self._fd2_deriv(t[src:src + n], 0, out=out[i:i + n])
            for j in range(1, self.dim):
                divs += self._fd2_deriv(t[src + j:src + j + n], j)
            i += n
        return out

    def div_tensor(self, t, rows: int = 0, ws=None, out=None) -> np.ndarray:
        """Row-wise divergence of a stored symmetric tensor, row i of which is
        t[i:i + dim], as a (rows, *shape) array, ``out`` if given.

        ``rows`` = 1 takes the divergence of a vector.  Spectrally each component
        is transformed once, into a half-spectrum stack of ``ws``, and each row
        summed in Fourier space: one forward and one inverse transform call.
        """
        t, rows = np.asarray(t), rows or self.dim
        if not self.spectral:
            out = np.empty((rows, *self.shape)) if out is None else out
            return self._fd2_divs(t, ((0, 0, rows),), out)
        ws = ws or self.fresh
        hats = self.forward(t, ws.half(len(t)))
        divs = self._div_spectra(hats, 0, 0, rows, ws)
        out = self.inverse(divs, out, work=divs)
        ws.give(hats)
        return out

    def div(self, v, ws=None) -> np.ndarray:
        """Divergence of a vector given by its components, into a buffer of ``ws``."""
        ws = ws or self.fresh
        out = ws.real()
        divs = self.div_tensor(v, 1, ws, None if out is None else out[None])
        return divs[0] if out is None else out

    def velocity_level(self, ru: np.ndarray, shear, bulk, div_u: bool, ws):
        """Level 1 of a spectral right-hand side from the rows ``ru`` = (rho, *u):
        (rows, addend), buffers of ``ws``.

        ``rows`` stacks grad rho and, if ``div_u``, div u.  ``addend`` is a
        (1 + dim)-row half-spectrum stack: row i >= 1 is shear u^_i + i k_i (bulk
        (div u)^) (``bulk`` None, as on a 1-D grid: all in ``shear``), row 0 is
        scratch.  One forward and one inverse transform call.
        """
        dim, ik = self.dim, self.ik
        hats = self.forward(ru, ws.half(1 + dim))
        rho_hat, u_hat = hats[0], hats[1:]
        spec = ws.half(1 + dim)   # i k_j rho^, then (div u)^
        for k, row in zip(ik, spec):
            np.multiply(k, rho_hat, out=row)
        if div_u or bulk is not None:
            div_hat = np.multiply(ik[0], u_hat[0], out=spec[dim])
            for k, h in zip(ik[1:], u_hat[1:]):
                div_hat += np.multiply(k, h, out=rho_hat)   # rho^ is dead
            if bulk is not None:
                bulk = np.multiply(div_hat, bulk, out=rho_hat)   # bulk (div u)^
        inv = spec[:dim + div_u]
        rows = self.inverse(inv, ws.real(len(inv)), work=inv)
        u_hat *= shear
        if bulk is not None:
            for k, h in zip(ik, u_hat):
                h += np.multiply(k, bulk, out=spec[0])   # spec is dead
        ws.give(spec)
        return rows, hats

    def conservation_rates(self, m, u, stress, addend=None, ws=None) -> np.ndarray:
        """The rates (-div m, *div(stress - m (x) u)) of the conservation law for
        (rho, m) with flux [m; m (x) u - stress], as one fresh (1 + dim, *shape) array.

        ``m`` and ``u`` are vectors, ``stress`` a stored symmetric tensor, none of them
        written; ``addend`` (spectral) is a half-spectrum stack whose rows 1.. are
        added to the momentum rows, and ``ws`` takes it back.  Under dealiasing the
        2/3 rule masks m and m (x) u (the quadratic terms) in the spectra the
        divergences take.  The flux components are the rows of one real stack of
        ``ws``: spectrally one forward and one inverse transform call.
        """
        dim, nc, masked = self.dim, len(stress), self.keep is not None
        ws = ws or self.fresh
        flux = ws.real(dim + nc * (1 + masked))   # m, stress - m (x) u; or m, stress, m (x) u
        flux[:dim] = m
        adv = flux[dim + nc * masked:]
        for row, (i, j) in zip(adv, self._pairs):
            np.multiply(m[i], u[j], out=row)
        if masked:
            flux[dim:dim + nc] = stress
        else:
            np.subtract(stress, adv, out=adv)
        if not self.spectral:
            rates = self._fd2_divs(flux, self._rate_runs, np.empty((1 + dim, *self.shape)))
        else:
            hats = self.forward(flux, ws.half(len(flux)))
            if masked:
                np.copyto(hats[:dim], 0.0, where=self.drop)
                np.copyto(hats[dim + nc:], 0.0, where=self.drop)
                hats[dim:dim + nc] -= hats[dim + nc:]
            for run in self._rate_runs:
                self._div_spectra(hats, *run, ws)
            divs = hats[dim - 1:2 * dim]
            if addend is not None:
                divs[1:] += addend[1:]
            rates = self.inverse(divs, work=divs)
            ws.give(hats, addend)
        ws.give(flux)
        mass_rate = rates[0]
        np.negative(mass_rate, out=mass_rate)
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

    Spectral: multiplication by -|k|^2 (``k2``) with the same Nyquist mask as
    the first derivatives, so it equals div(grad(.)) exactly.  FD2: the compact
    3-point stencil per axis under the ghost rule.
    """
    grid, ops, v = f.grid, _calculus(f.grid, d), f.values
    if ops.spectral:
        return ScalarField(grid, ops.inverse(ops.forward(v) * -ops.k2))
    total = np.zeros(grid.shape)
    for axis, (prev, nxt) in enumerate(ops.ghost):
        total += (v.take(nxt, axis=axis) - 2.0 * v + v.take(prev, axis=axis)) / grid.h[axis] ** 2
    return ScalarField(grid, total)


def mean(f: ScalarField) -> float:
    """Grid average (trapezoid rule collapses to the plain average here)."""
    return float(f.values.mean())


def dealias_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    """2/3-rule filter: zero every mode above n/3 on any axis."""
    if not grid.is_periodic:
        raise ConfigError("dealiasing is defined on periodic grids only")
    ops = _calculus(grid, Discretization(Scheme.SPECTRAL, dealias=True))
    hat = ops.forward(values)
    np.copyto(hat, 0.0, where=ops.drop)
    return ops.inverse(hat, work=hat)
