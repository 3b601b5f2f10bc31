"""The projected-Newton kernel that both restriction steps share: every search
either step makes starts downhill and ends no higher than it began, up to
the rise the step allows (none for the waveform step, the rounding of the
dual's value for the focusing step).

A search also ends at a point where the slope along its direction is still
negative, whatever the computed value there: by convexity the value is
lower. Near a waveform step's optimum that value can read a few ulps above
the start (up to 15 in a probe of 600 draws), far below the Newton loops'
relative gap tolerance ``GAP_STOP``; the test allows a rise below that
tolerance only at such a point."""

import pytest
from hypothesis import event, given, settings

from test_focusing_step import restrictions as focusing_restrictions
from test_waveform_step import restrictions as waveform_restrictions
from wptopt import dual_newton
from wptopt.dual_newton import GAP_STOP
from wptopt.focusing_step import focusing_step
from wptopt.waveform_step import dual_step


@settings(derandomize=True, max_examples=80, deadline=None)
@given(waveform_restrictions(), focusing_restrictions())
def test_every_search_descends(waveform, focusing):
    search = dual_newton.search
    searches = []

    def recorded(pt, p, at, gradient, curvature, rise):
        end = search(pt, p, at, gradient, curvature, rise)
        searches.append((float(gradient(pt) @ p), float(gradient(end) @ p),
                         pt.value, end.value, rise(pt)))
        return end

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dual_newton, "search", recorded)
        dual_step(waveform[1])
        focusing_step(focusing[0])
    event(f"{len(searches)} searches")
    for slope0, slope, start, end, rise in searches:
        assert slope0 < 0.0
        assert end <= start + rise or (
            slope <= 0.0 and end - start <= GAP_STOP * (1.0 + abs(start)))
