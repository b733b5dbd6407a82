open Dadu_linalg

(** SVG rendering of chain postures.

    Orthographic projection of one or more postures onto a coordinate
    plane, with optional targets — enough to *see* what a solver did
    (initial versus solved posture, a tracked path) without any
    plotting dependency. *)

type plane =
  | Xy
  | Xz
  | Yz

type posture = {
  label : string;
  theta : Vec.t;
  color : string;  (** any SVG color, e.g. "#1f77b4" *)
}

val posture : ?color:string -> ?label:string -> Vec.t -> posture
(** Default color from a small built-in palette keyed by label hash;
    default label "posture". *)

val render :
  ?width:int ->
  ?height:int ->
  ?plane:plane ->
  ?targets:Vec3.t list ->
  Chain.t ->
  posture list ->
  string
(** A complete standalone SVG document ([width]×[height] px, default
    640×480; [plane] defaults to [Xy]).  The view box auto-fits every
    drawn point with a 10 % margin.  Postures render as polylines with
    joint dots, targets as crosses.  Raises [Invalid_argument] on an
    empty posture list. *)

val write :
  ?width:int ->
  ?height:int ->
  ?plane:plane ->
  ?targets:Vec3.t list ->
  path:string ->
  Chain.t ->
  posture list ->
  unit
(** {!render} to a file. *)
