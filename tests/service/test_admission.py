"""Per-query RAM attribution.

Interleaved statements each report their own ``ram_peak``.  The old
``reset_peak`` global window smears concurrent peaks into one
high-water mark; the per-context :meth:`SecureRam.query_window` stack
does not, which is what makes the service's per-response ``ram_peak``
(and the ``claim_underruns`` counter built on it) trustworthy.
"""

import contextvars

from repro.hardware.ram import SecureRam

PAGE = 2048
CAPACITY = 32 * PAGE


# ----------------------------------------------------------------------
# per-query windows: attribution without smearing
# ----------------------------------------------------------------------
def _open_window(ram):
    manager = ram.query_window()
    return manager, manager.__enter__()


def test_interleaved_windows_do_not_smear():
    """Two interleaved queries each see only their own peak.

    The interleaving is the exact schedule that broke the legacy
    ``reset_peak`` protocol: A allocates, B starts *before* A frees,
    so the global high-water mark (6144) belongs to neither query.
    """
    ram = SecureRam(capacity=CAPACITY, page_size=PAGE)
    ctx_a = contextvars.copy_context()
    ctx_b = contextvars.copy_context()

    manager_a, window_a = ctx_a.run(_open_window, ram)
    alloc_a = ctx_a.run(ram.alloc, 2 * PAGE, "query A")
    manager_b, window_b = ctx_b.run(_open_window, ram)
    alloc_b = ctx_b.run(ram.alloc, PAGE, "query B")
    ctx_a.run(alloc_a.free)
    ctx_b.run(alloc_b.free)
    ctx_a.run(manager_a.__exit__, None, None, None)
    ctx_b.run(manager_b.__exit__, None, None, None)

    assert window_a.peak == 2 * PAGE
    assert window_b.peak == PAGE
    # the global mark smears (both queries were live at once); the
    # per-query attribution is what the service must report instead
    assert ram.peak_used == 3 * PAGE


def test_windows_nest_within_one_context():
    ram = SecureRam(capacity=CAPACITY, page_size=PAGE)
    with ram.query_window() as outer:
        with ram.reserve(PAGE):
            with ram.query_window() as inner:
                with ram.reserve(2 * PAGE):
                    pass
    assert inner.peak == 2 * PAGE        # only its own statement
    assert outer.peak == 3 * PAGE        # everything below it


def test_closed_window_stops_charging():
    ram = SecureRam(capacity=CAPACITY, page_size=PAGE)
    with ram.query_window() as window:
        pass
    with ram.reserve(PAGE):
        pass
    assert window.peak == 0
