"""Reference models the engine's kernels are pinned against.

Each module re-implements one engine layer the plain way — hop by hop over
channel objects, element by element over the control-plane arrays — with
no caching, batching or vectorisation, so a kernel test compares the fast
path to an independent oracle instead of to a second copy of itself:

* :mod:`tests.reference.path_ops` — bottleneck, fee recurrence, atomic
  lock with rollback, settle and refund over
  :class:`~repro.network.channel.PaymentChannel` objects;
* :mod:`tests.reference.signals` — the congestion control plane's marks,
  prices, gradients, queue penalty, imbalance and tick as per-element
  loops, plus the per-channel :class:`ChannelPriceState` price model;
* :mod:`tests.reference.sizes` — the truncated-lognormal size model with
  Φ and Φ⁻¹ taken from ``scipy.stats.norm``.
"""
