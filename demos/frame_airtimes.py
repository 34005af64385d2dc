"""Compare computed frame air times with the slot schedule the simulator charges.

Air time is what the symbols occupy on the wire; slot time is what the
scheduler reserves. The two disagree for broadband frames at the default
parameters, and the simulator deliberately trusts the slot schedule.
"""

from plcmac import (
    FdplcPhyParams,
    Ieee1901PhyParams,
    TimingTable,
    fdplc_data_frame_time,
    fdplc_preamble_time,
    ieee1901_frame_time,
)
from plcmac.phy_timing import NOMINAL_IEEE1901_BEACON_US, NOMINAL_IEEE1901_MME_US


def main() -> None:
    base = Ieee1901PhyParams()
    print(f"broadband, {base.n_b} bits at {base.n_c} bits/symbol:")
    print(f"  computed air time  {ieee1901_frame_time(base):10.2f} us")
    print(f"  nominal plan value {NOMINAL_IEEE1901_BEACON_US:10d} us")

    double = Ieee1901PhyParams(n_b=2 * base.n_b)
    print(f"broadband, {double.n_b} bits:")
    print(f"  computed air time  {ieee1901_frame_time(double):10.2f} us")
    print(f"  nominal plan value {NOMINAL_IEEE1901_MME_US:10d} us")
    print("  the symbol arithmetic lands well above the nominal values;")
    print("  the simulator charges slots, so the gap never touches results\n")

    fd = FdplcPhyParams()
    print(f"narrowband, {fd.bits} bits over {fd.carriers} carriers:")
    print(f"  preamble                {fdplc_preamble_time(fd):10.2f} us")
    print(f"  frame, fractional symbols {fdplc_data_frame_time(fd):8.2f} us")
    print(f"  frame, whole symbols      {fdplc_data_frame_time(fd, integer_symbols=True):8.2f} us\n")

    table = TimingTable()
    print("slot schedule the simulator charges (us):")
    for name, value in table.to_dict().items():
        print(f"  {name:24s} {value:6d}")


if __name__ == "__main__":
    main()
