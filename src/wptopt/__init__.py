"""Waveform and beam-focusing optimization for near-field wireless power transfer."""

from .scenario import (Architecture, ArraySpec, DeviceParams, FrequencyPlan,
                       MicrostripParams, ReceiverSpec, ScenarioConfig,
                       ScenarioError, SolverSettings, build_array,
                       load_scenario, save_scenario)
from .channel import ChannelTensor, build_channel, field_boundaries
from .transmitter import (DmaState, Waveform, effective_rows, element_rows,
                          expand_dma_weights, lorentzian_weight,
                          microstrip_response)
from .rectenna import harvested_voltage, output_voltage
from .power import Design, PowerReport, input_power, sampled_consumption
from .linearize import LinearizedVoltage, linearize_vo_in_q, linearize_vo_in_w
from .dual_newton import ExitReason
from .waveform_step import (WaveformRestriction, WaveformStep, dual_step,
                            waveform_restriction)
from .focusing_step import FocusingStep
from .socp import (ConeProgram, ConeSolution, SolveStatus,
                   assemble_q_subproblem, assemble_w_subproblem, solve)
from .optimize import (InfeasibleRestrictionError, InitPlan, OptimizationError,
                       RunTrace, TargetMissedError, UnmeetableRequirementError,
                       allocate_chains, init_digital_weights, init_q_phases,
                       run_asca_dma, run_sca_fd, run_sca_q, run_sca_w)
from .oracle import (BruteForceResult, FieldMap, PlaneSpec, SampledSignal,
                     brute_force_small, channel_coefficient, check_gradient,
                     closed_form_single, field_map, radiation_profile,
                     synthesize_received)

__version__ = "0.1.0"
