"""Wideband-backscatter RFID localization pipeline.

Multisine excitation synthesis, digital channelization, uplink decoding under
realistic tag clocks, and kernel-layer near-field hologram localization, all
runnable at desk scale on synthetic scenes.
"""

from .model import (ArrayGeometry, CarrierPlan, ChannelMatrix, ModelError,
                    PropagationPath, Scene, TagDef, C_M_PER_S,
                    default_array_geometry, default_carrier_plan,
                    distance_resolution, fraunhofer_distance, synth_channel,
                    thermal_noise_dbm, validate_emission)
from .waveform import (BasebandWave, TagPacket, apply_clock_offset, backscatter_mix,
                       build_packet_baseband, crest_factor, miller_encode,
                       optimize_crest_phases, optimize_tone_phases, papr_db, synth_multisine)
from .channelizer import (ChannelBank, WidebandCapture, channelize,
                          dynamic_range_required, notch_dc)
from .decoder import (DecodedPacket, DecodeError, NoPacketError, SyncEstimate,
                      decode_pipeline, mrc_combine, msnr_combine, pll_track,
                      preamble_search, viterbi_decode)
from .locator import (GridSpec, LocalizePolicy, LocationEstimate, PriorROI, TofProfile,
                      aoa_spectrum, basic_hologram, classify_roi, enhance_direct_path,
                      identify_direct_path, localize, peak_find_2d, summation_layer,
                      tof_profile, tof_spectrum)
from .harness import (BatchConfig, RunReport, SceneSpec, SnapshotRecord,
                      ablation_sweep, evaluate_roi, export_snapshots, import_snapshots,
                      run_batch, simulate_capture)

__version__ = "0.1.0"
