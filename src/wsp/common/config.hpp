// System configuration: every architecture/technology parameter of the
// waferscale processor, plus the derived quantities reported in Table I of
// the paper.
//
// Design rule of this library: Table-I numbers (bandwidths, currents, areas,
// core counts) are never hard-coded downstream — they are *derived* here
// from the primitive parameters, so the Table-I reproduction bench is a real
// consistency check of the model, not an echo of constants.
#pragma once

#include <cstddef>
#include <cstdint>

#include "wsp/common/fields.hpp"
#include "wsp/common/geometry.hpp"
#include "wsp/common/units.hpp"

namespace wsp {

/// Complete parameterisation of a chiplet-based waferscale processor in the
/// style of the DAC'21 prototype.  Defaults correspond to the paper's
/// 2048-chiplet system; `paper_prototype()` returns exactly that, and
/// `reduced()` scales the array down for fast simulation (the software
/// analogue of the paper's reduced-size FPGA emulation).
struct SystemConfig {
  // ---- Tile array -------------------------------------------------------
  int array_width = 32;   ///< tiles per row (32 in the prototype)
  int array_height = 32;  ///< tiles per column
  int cores_per_tile = 14;
  int chiplets_per_tile = 2;  ///< one compute + one memory chiplet

  // ---- Memory system ----------------------------------------------------
  std::size_t private_mem_per_core_bytes = 64 * 1024;
  int banks_per_memory_chiplet = 5;    ///< five 128 KB SRAM banks
  int shared_banks_per_tile = 4;       ///< banks in the global address space
  std::size_t bank_bytes = 128 * 1024;
  int bank_port_bytes = 4;             ///< 32-bit bank data port

  // ---- Clocking ---------------------------------------------------------
  double nominal_freq_hz = 300 * units::MHz;
  double max_forwarded_clock_hz = 350 * units::MHz;
  double pll_input_min_hz = 10 * units::MHz;
  double pll_input_max_hz = 133 * units::MHz;
  double pll_output_max_hz = 400 * units::MHz;
  int clock_select_toggle_count = 16;  ///< toggles before auto-selection

  // ---- Power delivery ---------------------------------------------------
  double nominal_voltage_v = 1.1;
  double regulated_min_v = 1.0;   ///< guaranteed LDO output band (low)
  double regulated_max_v = 1.2;   ///< guaranteed LDO output band (high)
  double ff_corner_voltage_v = 1.21;  ///< fast-fast corner logic supply
  double edge_supply_voltage_v = 2.5; ///< supply at the wafer edge
  double min_center_supply_v = 1.4;   ///< droop floor the LDO must track
  double tile_peak_power_w = 350 * units::mW;
  double decap_per_tile_f = 20 * units::nF;
  double max_load_step_a = 200 * units::mA;  ///< worst-case demand swing
  double decap_area_fraction = 0.35;  ///< ~35 % of tile area is decap
  int substrate_metal_layers = 4;     ///< 2 power planes + 2 signal layers
  double substrate_metal_thickness_m = 2 * units::um;  ///< max Si-IF thickness
  double copper_sheet_resistance_ohm_per_sq = 0.0086;  ///< 2 um Cu plane

  // ---- I/O architecture -------------------------------------------------
  int ios_per_compute_chiplet = 2020;
  int ios_per_memory_chiplet = 1250;
  double io_pitch_m = 10 * units::um;       ///< Cu-pillar pitch
  double wiring_pitch_m = 5 * units::um;    ///< interconnect wiring pitch
  double io_cell_area_m2 = 150 * units::um2;
  double io_energy_per_bit_j = 0.063 * units::pJ;
  double io_signaling_rate_hz = 1 * units::GHz;
  double max_link_length_m = 500 * units::um;
  int signal_routing_layers = 2;            ///< two layers of signalling
  double pillar_bond_yield = 0.9999;        ///< >99.99 % per pillar
  int pillars_per_pad = 2;                  ///< dual-pillar redundancy

  // ---- Waferscale network ----------------------------------------------
  int link_width_bits_per_side = 400;  ///< escape width per tile side
  int packet_bits = 100;               ///< full packet width
  int payload_bits = 64;               ///< data payload per packet
  int num_networks = 2;                ///< X-Y and Y-X DoR networks
  int buses_per_network_per_side = 2;  ///< ingress + egress

  // ---- Physical geometry -------------------------------------------------
  PhysicalGeometry geometry{
      .compute_chiplet_width_m = 3.15 * units::mm,
      .compute_chiplet_height_m = 2.4 * units::mm,
      .memory_chiplet_width_m = 3.15 * units::mm,
      .memory_chiplet_height_m = 1.1 * units::mm,
      .inter_chiplet_gap_m = 100 * units::um,
  };
  double edge_io_margin_m = 6.2 * units::mm;  ///< fan-out ring to connectors

  // ---- Test infrastructure ----------------------------------------------
  double jtag_tck_hz = 10 * units::MHz;  ///< max TCK with split chains
  int jtag_chains = 32;                  ///< one chain per tile row

  // ---- Substrate reticle plan -------------------------------------------
  int reticle_tiles_x = 12;  ///< tiles per reticle, x
  int reticle_tiles_y = 6;   ///< tiles per reticle, y
  double intra_reticle_wire_width_m = 2 * units::um;
  double intra_reticle_wire_space_m = 3 * units::um;
  double stitch_wire_width_m = 3 * units::um;  ///< fat wires at reticle edge
  double stitch_wire_space_m = 2 * units::um;

  // ---- Factories ---------------------------------------------------------
  /// The full 2048-chiplet, 14336-core prototype of the paper.
  static SystemConfig paper_prototype();
  /// A WxH-tile system with otherwise identical parameters (the software
  /// analogue of the paper's reduced-size FPGA emulation platform).
  static SystemConfig reduced(int width, int height);

  /// Throws wsp::Error when a parameter combination is inconsistent.
  void validate() const;

  TileGrid grid() const { return TileGrid(array_width, array_height); }

  // ---- Derived quantities (Table I) --------------------------------------
  int total_tiles() const { return array_width * array_height; }
  int total_chiplets() const { return total_tiles() * chiplets_per_tile; }
  int total_cores() const { return total_tiles() * cores_per_tile; }

  /// Peak compute throughput in ops/s (1 op per core per cycle).
  double compute_throughput_ops() const {
    return static_cast<double>(total_cores()) * nominal_freq_hz;
  }

  /// Globally shared memory capacity in bytes (shared banks only).
  std::size_t total_shared_memory_bytes() const {
    return static_cast<std::size_t>(total_tiles()) *
           static_cast<std::size_t>(shared_banks_per_tile) * bank_bytes;
  }

  /// Aggregate shared-memory bandwidth in bytes/s: every bank on every
  /// memory chiplet can be accessed in parallel, one 32-bit word per cycle.
  double shared_memory_bandwidth_bytes_per_s() const {
    return static_cast<double>(total_tiles()) * banks_per_memory_chiplet *
           bank_port_bytes * nominal_freq_hz;
  }

  /// Aggregate waferscale-network payload bandwidth in bytes/s: each tile
  /// can inject and eject one packet per network per cycle (2 networks x
  /// ingress+egress x 64-bit payload = 256 payload bits per tile per cycle).
  double network_bandwidth_bytes_per_s() const {
    return static_cast<double>(total_tiles()) * num_networks *
           buses_per_network_per_side * (payload_bits / 8.0) * nominal_freq_hz;
  }

  /// Peak current drawn by all tiles at the fast-fast corner, in amperes.
  /// The paper quotes "about 290 A".
  double total_peak_current_a() const {
    return static_cast<double>(total_tiles()) * tile_peak_power_w /
           ff_corner_voltage_v;
  }

  /// Peak power entering the wafer edge at the edge supply voltage, in W
  /// (the "Total Peak Power 725 W" row of Table I: 290 A x 2.5 V).
  double total_peak_power_w() const {
    return total_peak_current_a() * edge_supply_voltage_v;
  }

  /// Area of the populated tile array (tile pitch x array size), m^2.
  double array_area_m2() const {
    return geometry.tile_pitch_x_m() * array_width *
           geometry.tile_pitch_y_m() * array_height;
  }

  /// Total substrate area including the edge fan-out / connector ring, m^2
  /// ("Total Area (w/ edge I/Os) 15100 mm^2").
  double total_area_m2() const;

  /// Active silicon area (sum of all chiplet areas), m^2.
  double active_silicon_area_m2() const {
    return geometry.tile_active_area_m2() * total_tiles();
  }

  /// Total number of fine-pitch inter-chiplet I/Os across the system.
  std::int64_t total_inter_chip_ios() const {
    return static_cast<std::int64_t>(total_tiles()) *
           (ios_per_compute_chiplet + ios_per_memory_chiplet);
  }

  /// Per-tile decoupling capacitance the LDO sees, already in the struct;
  /// this returns the aggregate across the wafer (for PDN transient study).
  double total_decap_f() const { return decap_per_tile_f * total_tiles(); }
};

auto fields(Of<SystemConfig> auto& c) {
  return std::tie(
      c.array_width, c.array_height, c.cores_per_tile, c.chiplets_per_tile,
      c.private_mem_per_core_bytes, c.banks_per_memory_chiplet,
      c.shared_banks_per_tile, c.bank_bytes, c.bank_port_bytes,
      c.nominal_freq_hz, c.max_forwarded_clock_hz, c.pll_input_min_hz,
      c.pll_input_max_hz, c.pll_output_max_hz, c.clock_select_toggle_count,
      c.nominal_voltage_v, c.regulated_min_v, c.regulated_max_v,
      c.ff_corner_voltage_v, c.edge_supply_voltage_v, c.min_center_supply_v,
      c.tile_peak_power_w, c.decap_per_tile_f, c.max_load_step_a,
      c.decap_area_fraction, c.substrate_metal_layers,
      c.substrate_metal_thickness_m, c.copper_sheet_resistance_ohm_per_sq,
      c.ios_per_compute_chiplet, c.ios_per_memory_chiplet, c.io_pitch_m,
      c.wiring_pitch_m, c.io_cell_area_m2, c.io_energy_per_bit_j,
      c.io_signaling_rate_hz, c.max_link_length_m, c.signal_routing_layers,
      c.pillar_bond_yield, c.pillars_per_pad, c.link_width_bits_per_side,
      c.packet_bits, c.payload_bits, c.num_networks,
      c.buses_per_network_per_side, c.geometry, c.edge_io_margin_m,
      c.jtag_tck_hz, c.jtag_chains, c.reticle_tiles_x, c.reticle_tiles_y,
      c.intra_reticle_wire_width_m, c.intra_reticle_wire_space_m,
      c.stitch_wire_width_m, c.stitch_wire_space_m);
}

}  // namespace wsp
