// DataTypeConversion: the actor whose generated diagnosis exercises the
// downcast / precision-loss / wrap templates (paper Fig. 4 and the second
// injected error of the CSEV case study, where a product's int16 output
// narrows int32 voltage*current).
#include "actors/common.h"

namespace accmos {
namespace {

class DataTypeConversionSpec : public ActorSpec {
 public:
  std::string type() const override { return "DataTypeConversion"; }
  bool canSaturate() const override { return true; }

  ActorCatalog::PortLayout ports(const Actor&) const override {
    return {1, 1};
  }

  std::vector<DiagKind> diagnostics(const FlatModel& fm,
                                    const FlatActor& fa) const override {
    std::vector<DiagKind> kinds;
    DataType inT = fm.signal(fa.inputs[0]).type;
    DataType outT = fm.signal(fa.outputs[0]).type;
    if (isIntType(outT) || outT == DataType::Bool) {
      kinds.push_back(saturating(fa) ? DiagKind::SaturateOnOverflow
                                     : DiagKind::WrapOnOverflow);
    }
    if (isDowncast(inT, outT)) kinds.push_back(DiagKind::Downcast);
    if (losesPrecision(inT, outT)) kinds.push_back(DiagKind::PrecisionLoss);
    return kinds;
  }

  void eval(EvalContext& ctx) const override {
    ArithFlags fl;
    bool sat = saturating(ctx.fa());
    auto flags = ctx.out().convertFrom(ctx.in(0), sat);
    fl.overflow(sat) = flags.wrapped;
    fl.prec = flags.precisionLoss;
    reportArith(ctx, fl);
  }

  void emit(EmitContext& ctx) const override {
    DataType inT = ctx.inType(0);
    DataType outT = ctx.outType();
    EmitFlags flags = declareArithFlags(ctx);
    beginElemLoop(ctx, ctx.outWidth());
    if (isFloatType(outT) && !isFloatType(inT)) {
      // int -> float: flag precision loss when the integer does not
      // round-trip (as Value::convertFrom does).
      std::string x = ctx.sink().freshVar("x");
      std::string v = ctx.sink().freshVar("v");
      ctx.line("__int128 " + x + " = " + ctx.inElem(0, "i", DataType::I64) +
               ";");
      ctx.line("double " + v + " = " + ctx.inElem(0, "i", DataType::F64) +
               ";");
      ctx.line(ctx.out() + "[i] = (" + std::string(dataTypeCpp(outT)) + ")" +
               v + ";");
      if (!flags.prec.empty()) {
        ctx.line("if ((double)" + ctx.out() + "[i] != " + v + " || (__int128)" +
                 v + " != " + x + ") " + flags.prec + " = 1;");
      }
    } else if (isFloatType(outT)) {
      // float -> float.
      ctx.line(ctx.storeOutStmt("i", ctx.inElem(0, "i", DataType::F64),
                                flags.wrap, flags.prec));
    } else if (isFloatType(inT)) {
      // float -> int: round-to-nearest; wrap or saturate per the actor's
      // arithmetic option.
      ctx.line(storeOutSat(ctx, "i",
                           "(double)(" + ctx.in(0) + "[" +
                               (ctx.inWidth(0) == 1 ? "0" : "i") + "])",
                           flags, saturating(ctx.fa())));
    } else {
      // int -> int: two's-complement wrap or saturating clamp.
      ctx.line(storeOutSat(ctx, "i", ctx.inElem(0, "i", DataType::I64),
                           flags, saturating(ctx.fa())));
    }
    endElemLoop(ctx);
    finishEmit(ctx, flags);
  }
};

}  // namespace

void registerConversionActors(std::vector<std::unique_ptr<ActorSpec>>& out) {
  out.push_back(std::make_unique<DataTypeConversionSpec>());
}

}  // namespace accmos
