"""repro.serve — the prediction service subsystem.

Serving only loads: bundles are built by ``repro campaign`` and
``repro train``, and this subsystem turns them into a serving stack:

* :mod:`repro.serve.registry` — named bundles keyed by (device, recipe,
  feature config), resolved from memory or disk;
* :mod:`repro.serve.cache` — content-hash LRU over kernel source → static
  features, skipping the clkernel frontend on repeat requests;
* :mod:`repro.serve.service` — the :class:`PredictionService` facade with
  batched vectorized inference and hit/miss/latency telemetry;
* :mod:`repro.serve.fleet` — the :class:`FleetService` front door: route
  requests to any measured device by name or alias, lazy-load per-device
  services (LRU-bounded), share one kernel-feature cache fleet-wide, and
  deploy a whole campaign store in one call;
* :mod:`repro.serve.daemon` — the micro-batching HTTP daemon over a fleet.

The package itself exports nothing, so importing one module loads only
what that module needs.  Quick start, from a saved artifact::

    from repro.serve.service import PredictionService

    service = PredictionService.from_artifact("models.json")
    fronts = service.predict_batch([src1, src2, src3])

Fleet serving a campaign store::

    from repro.serve.fleet import FleetService

    fleet = FleetService.from_campaign_store("repro-store")
    front = fleet.predict(kernel_source, device="tesla-p100")
"""
