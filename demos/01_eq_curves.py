"""Tour of the parametric EQ engine.

Designs the five standard piano bands, prints the cascade's second-order
sections, and tabulates the combined magnitude response for a few settings.
Pipe the CSV block into any plotting tool, or use the equivalent CLI command:

    eqrep response --gains 6,-3,0,4,-6
"""

from eqrep.eq import eq_response, eq_sos, log_frequency_grid, standard_bands

SR = 44100

bands = standard_bands()
print("The five bands:")
for band in bands:
    print(f"  {band.center_hz:>8.0f} Hz  {band.filter_kind:<10s}  q={band.q}")

print("\nSOS rows [b0, b1, b2, a0, a1, a2] for +6 dB on each band:")
for band, (b0, b1, b2, _, a1, a2) in zip(bands, eq_sos([6.0] * 5, bands, SR)):
    stable = abs(a2) < 1.0 and abs(a1) < 1.0 + a2  # both poles inside the unit circle
    print(f"  {band.center_hz:>8.0f} Hz: b=({b0:+.4f}, {b1:+.4f}, {b2:+.4f})"
          f"  a=(1, {a1:+.4f}, {a2:+.4f})  stable={stable}")

# The bell filters are exact at their center frequency: +g dB in -> +g dB out.
for gain in (3.0, 12.0, -9.0):
    at_center = eq_response([0, 0, gain, 0, 0], bands, [2500.0], SR)[0]
    print(f"\nbell @2500 Hz set to {gain:+.0f} dB measures {at_center:+.6f} dB at center")

print("\nCombined curve for gains (6, -3, 0, 4, -6) dB, every 10th grid point:")
freqs = log_frequency_grid(20, 20000, 200)
curve = eq_response([6, -3, 0, 4, -6], bands, freqs, SR)
print("frequency_hz,gain_db")
for f, g in zip(freqs[::10], curve[::10]):
    print(f"{f:9.1f},{g:+7.3f}")
