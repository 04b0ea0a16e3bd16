#include "predictor/dependence.hh"

#include "common/logging.hh"
#include "predictor/oracle.hh"
#include "predictor/store_sets.hh"

namespace edge::pred {

const char *
depPolicyName(DepPolicy policy)
{
    switch (policy) {
      case DepPolicy::Blind:        return "blind";
      case DepPolicy::Conservative: return "conservative";
      case DepPolicy::StoreSets:    return "store-sets";
      case DepPolicy::Oracle:       return "oracle";
    }
    return "?";
}

namespace {

/** Always speculate: a load issues the moment its address arrives. */
class BlindPredictor : public DependencePredictor
{
  public:
    bool
    loadMustWait(const LoadQuery &query) override
    {
        return false;
    }

    const char *name() const override { return "blind"; }
};

/** Never speculate: wait for every older store to resolve. */
class ConservativePredictor : public DependencePredictor
{
  public:
    explicit ConservativePredictor(StatSet &stats)
        : _waits(stats.counter("conservative.waits",
                               "loads held for older stores"))
    {
    }

    bool
    loadMustWait(const LoadQuery &query) override
    {
        if (!query.older.any())
            return false;
        ++_waits;
        return true;
    }

    const char *name() const override { return "conservative"; }

  private:
    Counter &_waits;
};

} // namespace

std::unique_ptr<DependencePredictor>
makeDependencePredictor(DepPolicy policy, const OracleDb *oracle,
                        StatSet &stats)
{
    switch (policy) {
      case DepPolicy::Blind:
        return std::make_unique<BlindPredictor>();
      case DepPolicy::Conservative:
        return std::make_unique<ConservativePredictor>(stats);
      case DepPolicy::StoreSets:
        return std::make_unique<StoreSetsPredictor>(StoreSetsParams{},
                                                    stats);
      case DepPolicy::Oracle:
        fatal_if(!oracle, "oracle policy requires an OracleDb");
        return std::make_unique<OraclePredictor>(*oracle, stats);
    }
    panic("unknown dependence policy");
}

} // namespace edge::pred
