#include "src/policies/arc.h"

namespace qdlp {

// Compile both index backings once here rather than in every TU.
template class BasicArcPolicy<FlatIndexFactory>;
template class BasicArcPolicy<DenseIndexFactory>;

}  // namespace qdlp
