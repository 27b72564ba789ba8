#include "src/policies/lirs.h"

namespace qdlp {

// Compile both index backings once here rather than in every TU.
template class BasicLirsPolicy<FlatIndexFactory>;
template class BasicLirsPolicy<DenseIndexFactory>;

}  // namespace qdlp
