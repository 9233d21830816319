(** Pure helpers of the seeded benchmark: sample statistics, span
    self time, the wire residual, metric-name rules, the parser for the
    final-metrics dump that [sqp serve] and [sqp route] print when they
    drain, and the one-line JSON result.  Kept free of I/O so the
    benchmark's own tests can pin every rule. *)

(** {1 Samples} *)

val median : float array -> float
(** Median of the sample (mean of the middle pair for even sizes);
    [nan] when empty.  The argument is not modified. *)

val mean : float array -> float
(** Arithmetic mean; [nan] when empty. *)

type tail = {
  value : float;  (** the sample value at [pct] (nearest rank) *)
  pct : float;  (** the percentile reported, from {!tail_ladder} *)
  beyond : int;  (** samples strictly after that rank *)
  n : int;  (** sample size *)
}

val tail_ladder : float list
(** Percentiles a tail may be reported at, highest first:
    99.9, 99, 95, 90, 75, 50. *)

val tail : float array -> tail option
(** The highest percentile of {!tail_ladder} whose nearest-rank value
    has at least 10 samples beyond it; [None] when even the median has
    fewer (fewer than 20 samples). *)

(** {1 Spans} *)

val self_time : parent:float * float -> children:(float * float) list -> float
(** [self_time ~parent:(start, stop) ~children] is the parent's duration
    minus the part of \[start, stop\] that the union of the child
    intervals covers.  Children may overlap each other and stick out of
    the parent; only the covered part inside the parent counts. *)

(** {1 Wire residual} *)

val residual_ms :
  rtt_total_ms:float -> server_total_us:float -> requests:int -> float
(** Mean time per client request spent outside every server handler:
    [(rtt_total_ms - server_total_us / 1000) / requests].  [nan] when
    [requests = 0].  Not clamped: a negative value means the two clocks
    disagree and is reported as measured. *)

(** {1 Metric names} *)

val valid_metric_name : string -> bool
(** 1 to 64 characters of letters, digits, [_], [.] and [-], starting
    with a letter or a digit. *)

val valid_unit : string -> bool
(** 1 to 16 characters of letters, digits, [_], [/], [%], [.] and [-]. *)

(** {1 Final-metrics dump} *)

type reading =
  | Count of int  (** a counter or gauge *)
  | Hist of { count : int; sum : int }  (** a histogram's count and sum *)

val parse_dump : string -> (string * reading) list
(** Parse the text after the ["final metrics:"] line of an [sqp serve] /
    [sqp route] log (the {!Sqp_obs.Metrics.to_text} format).  Lines
    before that marker and bucket lines are skipped. *)

val dump_count : (string * reading) list -> string -> int
(** A counter's value, a histogram's count; 0 when absent. *)

val dump_sum : (string * reading) list -> string -> int
(** A histogram's sum, a counter's value; 0 when absent. *)

(** {1 Result line} *)

type metric = { name : string; value : float; unit_ : string }

val result_json :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
(** The one-line result object
    [{"correct": _, "attempted": _, "failed": _, "metrics": {...}}],
    values printed with 17 significant digits.
    @raise Invalid_argument on an invalid name or unit, a repeated name,
    or a non-finite value. *)
